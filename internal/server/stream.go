package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/simcache"
	"github.com/hpca18/bxt/internal/trace"
)

// stream is one logical session on a connection: an independent (scheme,
// transaction size) context with its own codec, bus models, similarity
// cache handle, fault budget, and batch-id space. Sessions below protocol
// v4 own exactly one stream (id 0, opened implicitly by the Hello), so
// their wire behaviour is unchanged; v4 sessions demultiplex many streams
// onto one connection and open the extras with StreamOpen frames. All
// stream state is only ever touched by the session's read goroutine, so
// stateful codecs see batches in arrival order.
type stream struct {
	ss  *session
	sid uint32

	schemeName string
	codec      core.Codec
	txnSize    int
	metaBits   int
	metaBytes  int
	counters   *schemeCounters
	log        *slog.Logger
	// faults counts this stream's recoverable batch faults against the
	// configured budget. On a v4 session an exhausted budget kills only
	// this stream; sibling streams on the connection keep serving.
	faults int
	// stateful is the codec's snapshot interface, resolved at open
	// against the unwrapped codec (the chaos wrapper forwards only the
	// core.Codec surface). Nil when the scheme's state is not
	// transferable.
	stateful scheme.Stateful

	// cache, when non-nil, is the similarity tier for this stream's
	// (scheme, txnSize): repeated transactions are served from it without
	// re-running the codec. patcher re-encodes near-duplicates by patching
	// the cached reference record; it is nil when the codec cannot patch
	// or when records carry side-band metadata a patch cannot reproduce,
	// and lookups then skip the band scan entirely (LookupExact).
	cache   *simcache.Cache
	patcher core.PatchEncoder
	probe   *simcache.Probe
	cacheH  *obs.Histogram
	// lookupTick strides the lookup timer: two clock reads per transaction
	// cost about as much as a hit itself, so one lookup in
	// lookupSampleStride is timed and scaled up for the stage histogram.
	lookupTick uint64

	// Stage histograms, resolved once at open so per-batch observation is
	// one mutex on the (scheme, stage) histogram.
	readH, admH, encH, accH, writeH *obs.Histogram
	batches                         uint64

	// traceID is the current batch's end-to-end trace id (zero on
	// sessions below protocol v3); span accumulates its per-stage
	// timings and wire counters. Both are touched only by the read
	// goroutine until the span is handed to writeLoop inside the
	// outFrame. lookupDur is the (sampled, scaled) similarity-cache
	// lookup time of the current batch, captured by encodeAllCached for
	// the span.
	traceID   uint64
	span      obs.Span
	lookupDur time.Duration
	// energy is the stream scheme's live wire-activity counter, resolved
	// once at open; every batch folds its baseline and encoded bus deltas
	// into it.
	energy *obs.EnergyCounter

	// baseBus and encBus carry the stream's wire state for baseline and
	// encoded transfers; their divergence is the value the gateway reports.
	baseBus, encBus   *bus.Bus
	prevBase, prevEnc bus.Stats
	enc               core.Encoded
	txns              []trace.Transaction
	recBuf            []byte

	// batch, when non-nil, is the codec's batch-granular entry point
	// (metadata-free streams only): encodeAllBatch gathers each block of
	// transactions into srcBuf, encodes it into recBuf windows with one
	// EncodeBatch call, and charges both buses with fused TransferBatch
	// walks while the block is still L1-resident. batchEnc holds the
	// per-block dst windows; bprobes, missIdx and missBuf serve the cached
	// variant, which defers a block's misses and batches them back through
	// the mega-kernel, then accounts the block the same way.
	batch    core.BatchEncoder
	srcBuf   []byte
	batchEnc []core.Encoded
	bprobes  []simcache.Probe
	missIdx  []int
	missBuf  []byte
}

// openStream builds one stream on the session: codec construction, the
// zero-transaction probe, chaos wrapping, and metric/histogram resolution.
// It does not register the stream with the session; the caller does, once
// the open is answered.
func (ss *session) openStream(sid uint32, schemeName string, txnSize int) (*stream, error) {
	name := schemeName
	if name == "default" {
		name = ss.srv.cfg.DefaultScheme
	}
	codec, err := scheme.Build(name, ss.srv.cfg.SchemeOptions())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errSession, err)
	}

	// Probe the codec and bus geometry with one zero transaction on
	// throwaway state, so misconfigurations fail the open instead of the
	// first batch.
	var probe core.Encoded
	if err := codec.Encode(&probe, make([]byte, txnSize)); err != nil {
		return nil, fmt.Errorf("%w: scheme %q cannot encode %d-byte transactions: %v", errSession, name, txnSize, err)
	}
	if err := bus.New(ss.srv.cfg.ChannelWidthBits).Transfer(&probe); err != nil {
		return nil, fmt.Errorf("%w: scheme %q does not fit a %d-bit channel: %v", errSession, name, ss.srv.cfg.ChannelWidthBits, err)
	}
	codec.Reset()
	// Patch re-encoding resolves against the real codec: the chaos
	// wrapper below may perturb Encode, but a near-hit patch must
	// reproduce the clean encoding the cache stores.
	patcher, _ := codec.(core.PatchEncoder)
	// State transfer resolves against the real codec too: a wrapped codec
	// exposes only the core.Codec surface, so the Stateful interface must
	// be captured before chaos wrapping.
	stateful, _ := scheme.AsStateful(codec)
	// Chaos injection wraps the codec after the probe, so a configured
	// fault cannot fail an otherwise valid open.
	if ss.srv.inj != nil {
		codec = ss.srv.inj.WrapCodec(codec)
	}

	st := &stream{
		ss:         ss,
		sid:        sid,
		schemeName: name,
		codec:      codec,
		stateful:   stateful,
		txnSize:    txnSize,
		metaBits:   codec.MetaBits(txnSize),
		counters:   ss.srv.met.scheme(name),
		baseBus:    bus.New(ss.srv.cfg.ChannelWidthBits),
		encBus:     bus.New(ss.srv.cfg.ChannelWidthBits),
	}
	st.metaBytes = (st.metaBits + 7) / 8
	// Metadata-free streams run the batch-granular fast path; codecs
	// without native BatchEncoder support (including chaos-wrapped ones,
	// whose faults must keep firing per transaction) fall back to a
	// sequential loop behind the same call.
	if st.metaBits == 0 {
		st.batch = scheme.BatchEncoder(codec)
	}

	stages := ss.srv.met.stages
	st.readH = stages.Hist(name, obs.StageFrameRead)
	st.admH = stages.Hist(name, obs.StageAdmission)
	st.encH = stages.Hist(name, obs.StageEncode)
	st.accH = stages.Hist(name, obs.StageAccount)
	st.writeH = stages.Hist(name, obs.StageFrameWrite)
	st.energy = ss.srv.met.energy.Counter(name)
	if cache := ss.srv.simCacheFor(name, txnSize, st.metaBits); cache != nil {
		st.cache = cache
		st.probe = &simcache.Probe{}
		st.cacheH = stages.Hist(name, obs.StageSimcacheLookup)
		if patcher != nil && st.metaBits == 0 {
			st.patcher = patcher
		}
	}
	st.log = ss.srv.log.With("session", ss.id, "stream", sid, "scheme", name)
	return st, nil
}

// muxReply prepends the v4 stream-id prefix to a v3-encoded reply body on
// multiplexed sessions; below v4 the body passes through untouched.
func (st *stream) muxReply(v3 []byte) []byte {
	if st.ss.version < 4 {
		return v3
	}
	return append(trace.AppendStreamID(make([]byte, 0, 4+len(v3)), st.sid), v3...)
}

// handleBatch runs one Batch frame body (already stripped of any v4
// stream-id prefix) through envelope validation, parsing, admission, and
// encoding, queueing whatever reply the outcome calls for. It returns true
// when the session must close (v1 semantics, or a pre-v4 fault budget
// exhausted).
func (st *stream) handleBatch(body []byte, readDur time.Duration) (fatal bool) {
	ss := st.ss
	var id uint64
	st.traceID = 0
	payload := body
	if ss.version >= 3 {
		var err error
		id, st.traceID, payload, err = trace.OpenTraceEnvelope(body)
		if err != nil {
			st.readH.ObserveDuration(readDur)
			return st.softFail(id, false, err.Error())
		}
	} else if ss.version >= 2 {
		var err error
		id, payload, err = trace.OpenBatchEnvelope(body)
		if err != nil {
			// OpenBatchEnvelope keeps the id on CRC failures, so the
			// client can retry the exact batch that arrived corrupt.
			st.readH.ObserveDuration(readDur)
			return st.softFail(id, false, err.Error())
		}
	}
	st.readH.ObserveDurationEx(readDur, st.traceID)
	st.span.Reset(st.traceID, id, ss.id, st.schemeName)
	st.span.Observe(obs.StageFrameRead, readDur)
	txns, err := trace.ParseBatch(payload, st.txnSize, st.txns[:0])
	if err != nil {
		return st.softFail(id, false, err.Error())
	}
	st.txns = txns
	if len(txns) == 0 || len(txns) > ss.srv.cfg.BatchLimit {
		return st.softFail(id, false, fmt.Sprintf("batch of %d transactions outside [1, %d]", len(txns), ss.srv.cfg.BatchLimit))
	}
	// The worker pool bounds concurrent encodes across all sessions.
	// v2+ streams wait a bounded time and may be shed with a retryable
	// Busy reply; v1 sessions block until a slot frees (draining does
	// not abort the acquire, so batches already read always complete).
	admStart := time.Now()
	if !ss.srv.admit(ss.version >= 2) {
		ss.srv.met.busyShed.Add(1)
		ss.srv.events.Add(obs.Event{Type: obs.EventBusy, Session: ss.id, Scheme: st.schemeName, Txns: len(txns), TraceID: st.traceID})
		ss.out <- outFrame{t: trace.FrameBusy, body: st.muxReply(trace.MarshalBusy(id, ss.srv.cfg.AdmitTimeout))}
		return false
	}
	// Shed batches never reach here, so the admission stage counts
	// admitted batches and its histogram reflects successful waits.
	admDur := time.Since(admStart)
	st.admH.ObserveDurationEx(admDur, st.traceID)
	st.span.Observe(obs.StageAdmission, admDur)
	reply, err := st.processBatch(id, txns)
	ss.srv.release()
	if err != nil {
		if errors.Is(err, errCodecPanic) {
			st.quarantine(id, len(txns), payload, err)
		}
		// Encoding began, so the codec was reset (recoverBatch); a v2
		// client learns via the reset flag to restart its decoder.
		return st.softFail(id, true, err.Error())
	}
	f := outFrame{t: trace.FrameBatchReply, body: reply, span: st.span, st: st, hasSpan: true}
	// Steady-state fast path: with nothing queued, the reply goes out from
	// this goroutine, skipping the channel handoff and writer wakeup. Only
	// this goroutine enqueues, so an empty queue cannot gain frames the
	// reply would overtake; a frame mid-write in the writer is ordered by
	// writeOut's mutex.
	if len(ss.out) == 0 {
		ss.writeOut(f, true)
	} else {
		ss.out <- f
	}
	return false
}

// softFail records one recoverable batch fault. A v1 session cannot be
// told to retry, so the fault stays fatal: error frame, then close. A v2
// or v3 session is answered with a BatchError reply and lives on — until
// its fault budget runs out, at which point the gateway disconnects the
// peer as abusive. On a v4 session the budget is per stream: exhaustion
// kills only this stream (StreamClosed), and sibling streams on the
// connection keep serving.
func (st *stream) softFail(id uint64, reset bool, cause string) (fatal bool) {
	ss := st.ss
	if ss.version < 2 {
		ss.fail(cause)
		return true
	}
	st.faults++
	ss.srv.met.batchFaults.Add(1)
	st.log.Warn("batch fault", "batch_id", id, "codec_reset", reset, "err", cause)
	ss.srv.events.Add(obs.Event{Type: obs.EventBatchFault, Session: ss.id, Scheme: st.schemeName, Detail: cause, TraceID: st.traceID})
	ss.out <- outFrame{t: trace.FrameBatchError, body: st.muxReply(trace.MarshalBatchError(id, reset, cause))}
	if st.faults >= ss.srv.cfg.FaultBudget {
		msg := fmt.Sprintf("fault budget exhausted after %d recoverable faults", st.faults)
		ss.srv.met.budgetKills.Add(1)
		ss.srv.events.Add(obs.Event{Type: obs.EventFaultBudget, Session: ss.id, Scheme: st.schemeName, Detail: msg})
		if ss.version >= 4 {
			ss.srv.met.streamKills.Add(1)
			st.log.Warn("closing stream", "reason", msg)
			ss.closeStream(st.sid, msg)
			return false
		}
		st.log.Warn("disconnecting", "reason", msg)
		ss.fail(msg)
		return true
	}
	return false
}

// quarantine records a batch whose codec encode panicked: the poison ring
// keeps a bounded prefix of the raw payload for offline reproduction.
func (st *stream) quarantine(id uint64, txns int, payload []byte, err error) {
	ss := st.ss
	ss.srv.met.codecPanics.Add(1)
	ss.srv.met.poisonBatches.Add(1)
	ss.srv.poison.add(ss.id, st.schemeName, id, txns, payload, err.Error())
	st.log.Warn("codec panic recovered; batch quarantined", "batch_id", id, "txns", txns, "err", err)
	ss.srv.events.Add(obs.Event{Type: obs.EventCodecPanic, Session: ss.id, Scheme: st.schemeName, Txns: txns, Detail: err.Error()})
}

// processBatch encodes one batch with the stream codec, drives the
// baseline and encoded transfers over the stream's bus models, and builds
// the BatchReply frame body. The two passes are timed separately: pass one
// is the codec_encode stage, pass two (bus transfers + power estimate) the
// phy_account stage. Any error return leaves the stream serviceable:
// recoverBatch has reset the codec and discarded the partial batch's bus
// deltas (the caller relays the reset to v2 clients).
func (st *stream) processBatch(id uint64, txns []trace.Transaction) ([]byte, error) {
	ss := st.ss
	if hook := ss.srv.testHookBatch; hook != nil {
		hook()
	}
	encStart := time.Now()
	st.recBuf = st.recBuf[:0]
	if err := st.encodeAll(txns); err != nil {
		st.recoverBatch()
		return nil, err
	}
	accStart := time.Now()
	encDur := accStart.Sub(encStart)
	st.encH.ObserveDurationEx(encDur, st.traceID)
	if st.cache != nil {
		// The lookup time is buried inside the encode pass; surface it as
		// its own span stage the way the sampled cacheH histogram does.
		st.span.Observe(obs.StageSimcacheLookup, st.lookupDur)
	}
	st.span.Observe(obs.StageEncode, encDur)

	// Accounting replays the records just built (the encoded payload is
	// txnSize bytes plus metaBytes of side-band per record, the same fixed
	// geometry the client parses). Batch streams, cached or not, have
	// already charged the buses during the encode pass with the fused
	// TransferBatch walk over each cache-hot block, and cached
	// metadata-carrying streams per record (encodeAllCached); both leave
	// only the geometry check here.
	recLen := st.txnSize + st.metaBytes
	if len(st.recBuf) != len(txns)*recLen {
		st.recoverBatch()
		return nil, fmt.Errorf("scheme %s: produced %d record bytes for %d transactions, want %d",
			st.schemeName, len(st.recBuf), len(txns), len(txns)*recLen)
	}
	if st.cache == nil && st.batch == nil {
		for i := range txns {
			raw := core.Encoded{Data: txns[i].Data}
			if err := st.baseBus.Transfer(&raw); err != nil {
				st.recoverBatch()
				return nil, err
			}
			rec := st.recBuf[i*recLen : (i+1)*recLen]
			enc := core.Encoded{Data: rec[:st.txnSize], Meta: rec[st.txnSize:], MetaBits: st.metaBits}
			if err := st.encBus.Transfer(&enc); err != nil {
				st.recoverBatch()
				return nil, err
			}
		}
	}

	baseNow, encNow := st.baseBus.Stats(), st.encBus.Stats()
	baseDelta := baseNow.Sub(st.prevBase)
	encDelta := encNow.Sub(st.prevEnc)
	st.prevBase, st.prevEnc = baseNow, encNow

	stats := trace.BatchStats{
		Transactions:  uint32(len(txns)),
		DataBits:      uint64(baseDelta.DataBits),
		OnesBefore:    uint64(baseDelta.Ones()),
		OnesAfter:     uint64(encDelta.Ones()),
		TogglesBefore: uint64(baseDelta.Toggles()),
		TogglesAfter:  uint64(encDelta.Toggles()),
		BaselinePJ:    ss.srv.model.Estimate(baseDelta).Total() * 1e12,
		EncodedPJ:     ss.srv.model.Estimate(encDelta).Total() * 1e12,
	}
	st.counters.observe(stats)
	st.energy.Observe(baseDelta, encDelta)
	done := time.Now()
	accDur := done.Sub(accStart)
	st.accH.ObserveDurationEx(accDur, st.traceID)
	st.span.Observe(obs.StageAccount, accDur)
	st.span.Txns = len(txns)
	st.span.DataBits = stats.DataBits
	st.span.BaseOnes, st.span.EncOnes = stats.OnesBefore, stats.OnesAfter
	st.span.BaseToggles, st.span.EncToggles = stats.TogglesBefore, stats.TogglesAfter
	st.batches++

	if total := done.Sub(encStart); total >= ss.srv.cfg.SlowBatch {
		st.log.Warn("slow batch", "txns", len(txns), "took", total.Round(time.Microsecond).String())
		ss.srv.events.Add(obs.Event{
			Type:       obs.EventSlowBatch,
			Session:    ss.id,
			Scheme:     st.schemeName,
			Txns:       len(txns),
			DurationMS: float64(total) / float64(time.Millisecond),
			TraceID:    st.traceID,
		})
	} else if st.log.Enabled(context.Background(), slog.LevelDebug) {
		// Gated so the duration formatting does not allocate on every
		// batch at the default info level.
		st.log.Debug("batch", "txns", len(txns), "took", total.Round(time.Microsecond).String())
	}

	// Reuse a recycled reply body if the writer has returned one; the
	// first few batches (and any burst deeper than the free list)
	// allocate, then the stream reaches a steady state of zero
	// allocations per batch.
	var body []byte
	select {
	case body = <-ss.replyFree:
		body = body[:0]
	default:
	}
	// On a v4 session the reply leads with the stream id; the envelope and
	// its CRC cover only the v3-encoded remainder, so the interior stays
	// byte-identical to what a v3 peer would see.
	envAt := 0
	if ss.version >= 4 {
		body = trace.AppendStreamID(body, st.sid)
		envAt = 4
	}
	if ss.version >= 3 {
		// Echo the trace id so the client can verify the reply belongs
		// to the trace it started.
		body = trace.AppendTraceEnvelope(body, id, st.traceID)
	} else if ss.version >= 2 {
		body = trace.AppendBatchEnvelope(body, id)
	}
	body = trace.AppendBatchStats(body, stats)
	body = append(body, st.recBuf...)
	if ss.version >= 2 {
		if err := trace.SealBatchEnvelope(body[envAt:]); err != nil {
			return nil, err // unreachable: the envelope was just appended
		}
	}
	return body, nil
}

// encodeAll runs the codec over every transaction, converting a codec
// panic into errCodecPanic so one poisonous batch cannot take down the
// process (or even the stream).
func (st *stream) encodeAll(txns []trace.Transaction) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errCodecPanic, r)
		}
	}()
	if st.cache != nil {
		if st.batch != nil {
			return st.encodeAllCachedBatch(txns)
		}
		return st.encodeAllCached(txns)
	}
	if st.batch != nil {
		return st.encodeAllBatch(txns)
	}
	for i := range txns {
		t := &txns[i]
		if e := st.codec.Encode(&st.enc, t.Data); e != nil {
			return fmt.Errorf("scheme %s: encoding transaction %#x: %v", st.schemeName, t.Addr, e)
		}
		st.recBuf = append(st.recBuf, st.enc.Data...)
		st.recBuf = append(st.recBuf, st.enc.Meta...)
	}
	return nil
}

// batchBlockTxns is the cache-blocking factor of the batch encode path: the
// gathered source block and its record windows (64 × 32 B = 2 KiB each for
// the paper's workload) both stay L1-resident from the encode walk through
// the fused accounting walk, while still amortizing per-call overheads.
const batchBlockTxns = 64

// encodeAllBatch is the batch-granular encode path for metadata-free
// streams without a similarity cache. BXTP frames stride each
// transaction's data behind its record header, so each block is first
// gathered into the contiguous srcBuf the mega-kernel wants; the dst
// records are pre-pointed at adjacent recBuf windows, so the kernels write
// the reply payload in place and the whole batch needs no per-record
// copies. Wire accounting is fused into the same walk (gatherBlock, then
// accountBlock after the encode), while the block is still L1-resident.
func (st *stream) encodeAllBatch(txns []trace.Transaction) error {
	n := len(txns)
	st.sizeBatch(n)
	for start := 0; start < n; start += batchBlockTxns {
		end := min(start+batchBlockTxns, n)
		bn := end - start
		ones, toggles := st.gatherBlock(txns[start:end])
		dst := st.batchEnc[:bn]
		for i := range dst {
			st.pointRecord(&dst[i], start+i)
		}
		if err := st.batch.EncodeBatch(dst, st.srcBuf, bn, st.txnSize); err != nil {
			return fmt.Errorf("scheme %s: encoding batch: %v", st.schemeName, err)
		}
		for i := range dst {
			if err := st.settleBatchRecord(&dst[i], start+i); err != nil {
				return err
			}
		}
		if err := st.accountBlock(start, end, ones, toggles); err != nil {
			return err
		}
	}
	return nil
}

// sizeBatch sizes recBuf for n metadata-free records and batchEnc for one
// block's dst records.
func (st *stream) sizeBatch(n int) {
	if need := n * st.txnSize; cap(st.recBuf) < need {
		st.recBuf = make([]byte, need)
	} else {
		st.recBuf = st.recBuf[:need]
	}
	if cap(st.batchEnc) < batchBlockTxns {
		st.batchEnc = make([]core.Encoded, batchBlockTxns)
	}
}

// fusedGather reports whether the stream's geometry takes gatherCounted:
// 8-byte-multiple transactions on a 4- or 8-byte beat.
func (st *stream) fusedGather() bool {
	bb := st.baseBus.BeatBytes()
	return st.txnSize%8 == 0 && (bb == 4 || bb == 8)
}

// gatherBlock copies a block's payloads back to back into srcBuf. On the
// fused geometries the copy also counts the raw side's ones and beat
// toggles for accountBlock; elsewhere both counts are zero and accountBlock
// walks srcBuf itself.
func (st *stream) gatherBlock(block []trace.Transaction) (ones, toggles int) {
	if !st.fusedGather() {
		st.srcBuf = st.srcBuf[:0]
		for i := range block {
			st.srcBuf = append(st.srcBuf, block[i].Data...)
		}
		return 0, 0
	}
	blockBytes := len(block) * st.txnSize
	if cap(st.srcBuf) < blockBytes {
		st.srcBuf = make([]byte, blockBytes)
	}
	st.srcBuf = st.srcBuf[:blockBytes]
	return gatherCounted(st.srcBuf, block, st.txnSize, st.baseBus.BeatBytes())
}

// accountBlock charges the block of transactions [start, end) to both
// buses in arrival order: the gathered srcBuf to the baseline bus, adopting
// gatherBlock's counts where it made them, and the block's recBuf records
// to the encoded bus. Each is one fused TransferBatch walk — one boundary
// splice plus streaming popcount passes — instead of a per-beat Transfer
// per record.
func (st *stream) accountBlock(start, end, ones, toggles int) error {
	var err error
	if st.fusedGather() {
		err = st.baseBus.TransferBatchCounted(st.srcBuf, st.txnSize, ones, toggles)
	} else {
		err = st.baseBus.TransferBatch(st.srcBuf, st.txnSize)
	}
	if err != nil {
		return err
	}
	return st.encBus.TransferBatch(st.recBuf[start*st.txnSize:end*st.txnSize], st.txnSize)
}

// pointRecord aims dst at record idx's recBuf window, so the batch kernel
// encodes it in place.
func (st *stream) pointRecord(d *core.Encoded, idx int) {
	off := idx * st.txnSize
	d.Data = st.recBuf[off : off+st.txnSize : off+st.txnSize]
	d.Meta = d.Meta[:0]
	d.MetaBits = 0
}

// settleBatchRecord verifies the codec encoded record idx in place into its
// recBuf window, copying back records a misbehaving (or fault-injected)
// codec regrew elsewhere and rejecting ones with the wrong geometry.
func (st *stream) settleBatchRecord(d *core.Encoded, idx int) error {
	recLen := st.txnSize // batch streams are metadata-free
	slot := st.recBuf[idx*recLen : (idx+1)*recLen]
	if len(d.Data) != recLen || d.MetaBits != 0 {
		return fmt.Errorf("scheme %s: batch record %d has %d data bytes and %d meta bits, want %d and 0",
			st.schemeName, idx, len(d.Data), d.MetaBits, recLen)
	}
	if &d.Data[0] != &slot[0] {
		copy(slot, d.Data)
	}
	return nil
}

// encodeAllCachedBatch fuses the similarity cache with the batch path: each
// block is gathered and its transactions looked up — hits and patched
// near-hits land their records straight into recBuf — and the misses are
// batched back through the mega-kernel in one EncodeBatch call. A record is
// inserted only when its probe says it is worth it (Probe.Admit), so
// one-off near-duplicate variants are served without evicting anything.
// With every record of the block in place, accountBlock charges the buses
// exactly as encodeAllBatch does.
func (st *stream) encodeAllCachedBatch(txns []trace.Transaction) error {
	n := len(txns)
	recLen := st.txnSize // cached streams with a batch path are metadata-free
	st.sizeBatch(n)
	if len(st.bprobes) < batchBlockTxns {
		st.bprobes = make([]simcache.Probe, batchBlockTxns)
	}
	var lookups time.Duration
	for start := 0; start < n; start += batchBlockTxns {
		end := min(start+batchBlockTxns, n)
		ones, toggles := st.gatherBlock(txns[start:end])
		st.missIdx = st.missIdx[:0]
		st.missBuf = st.missBuf[:0]
		for i := 0; i < end-start; i++ {
			src := st.srcBuf[i*recLen : (i+1)*recLen]
			p := &st.bprobes[i]
			var lookupStart time.Time
			sampled := st.lookupTick%lookupSampleStride == 0
			st.lookupTick++
			if sampled {
				lookupStart = time.Now()
			}
			var res simcache.Result
			if st.patcher != nil {
				res = st.cache.Lookup(p, src)
			} else {
				res = st.cache.LookupExact(p, src)
			}
			if sampled {
				lookups += time.Since(lookupStart) * lookupSampleStride
			}
			slot := st.recBuf[(start+i)*recLen : (start+i+1)*recLen]
			switch {
			case res == simcache.HitExact:
				copy(slot, p.Data)
			case res == simcache.HitNear && st.patcher.PatchEncode(slot, src, p.Ref, p.RefEnc):
				if p.Admit {
					st.cache.Insert(p, src, slot, nil)
				}
			default:
				st.missIdx = append(st.missIdx, i)
				st.missBuf = append(st.missBuf, src...)
			}
		}
		if len(st.missIdx) > 0 {
			dst := st.batchEnc[:len(st.missIdx)]
			for k, i := range st.missIdx {
				st.pointRecord(&dst[k], start+i)
			}
			if err := st.batch.EncodeBatch(dst, st.missBuf, len(st.missIdx), st.txnSize); err != nil {
				return fmt.Errorf("scheme %s: encoding batch: %v", st.schemeName, err)
			}
			for k, i := range st.missIdx {
				if err := st.settleBatchRecord(&dst[k], start+i); err != nil {
					return err
				}
				if p := &st.bprobes[i]; p.Admit {
					off := (start + i) * recLen
					st.cache.Insert(p, st.srcBuf[i*recLen:(i+1)*recLen], st.recBuf[off:off+recLen], nil)
				}
			}
		}
		if err := st.accountBlock(start, end, ones, toggles); err != nil {
			return err
		}
	}
	st.lookupDur = lookups
	st.cacheH.ObserveEx(lookups.Seconds(), st.traceID)
	return nil
}

// encodeAllCached is the similarity-cache encode path of metadata-carrying
// streams. Those records carry side-band bits a patch cannot reproduce, so
// the stream has no patcher and looks up exact repeats only: a hit appends
// the cached record verbatim, and a miss runs a full encode and populates
// the cache for the next repeat. The summed (sampled, see
// lookupSampleStride) lookup time feeds the simcache_lookup stage once per
// batch.
//
// Wire accounting is fused into the same pass: a hit carries the record's
// memoized bus summaries out of the cache and an Insert leaves the freshly
// computed pair in the probe, so either way the buses are charged with an
// O(1-beat) splice instead of the full per-beat walk processBatch would
// otherwise run. recoverBatch discards any partially applied deltas if the
// batch fails midway, exactly as for partial Transfer loops.
func (st *stream) encodeAllCached(txns []trace.Transaction) error {
	var lookups time.Duration
	for i := range txns {
		t := &txns[i]
		var lookupStart time.Time
		sampled := st.lookupTick%lookupSampleStride == 0
		st.lookupTick++
		if sampled {
			lookupStart = time.Now()
		}
		res := st.cache.LookupExact(st.probe, t.Data)
		if sampled {
			lookups += time.Since(lookupStart) * lookupSampleStride
		}
		recStart := len(st.recBuf)
		if res == simcache.HitExact {
			st.recBuf = append(st.recBuf, st.probe.Data...)
			st.recBuf = append(st.recBuf, st.probe.Meta...)
		} else {
			if e := st.codec.Encode(&st.enc, t.Data); e != nil {
				return fmt.Errorf("scheme %s: encoding transaction %#x: %v", st.schemeName, t.Addr, e)
			}
			st.recBuf = append(st.recBuf, st.enc.Data...)
			st.recBuf = append(st.recBuf, st.enc.Meta...)
			st.cache.Insert(st.probe, t.Data, st.enc.Data, st.enc.Meta)
		}
		if err := st.accountCached(t.Data, st.recBuf[recStart:]); err != nil {
			return err
		}
	}
	st.lookupDur = lookups
	st.cacheH.ObserveEx(lookups.Seconds(), st.traceID)
	return nil
}

// accountCached charges one just-built record to the stream's buses: via
// the probe's memoized summaries when the cache provided them, else by
// replaying the raw transaction and record through the full Transfer walk.
func (st *stream) accountCached(raw, rec []byte) error {
	if st.probe.HasSums {
		if err := st.baseBus.Apply(&st.probe.RawSum); err != nil {
			return err
		}
		return st.encBus.Apply(&st.probe.EncSum)
	}
	if len(rec) != st.txnSize+st.metaBytes {
		return fmt.Errorf("scheme %s: produced a %d-byte record, want %d",
			st.schemeName, len(rec), st.txnSize+st.metaBytes)
	}
	base := core.Encoded{Data: raw}
	if err := st.baseBus.Transfer(&base); err != nil {
		return err
	}
	enc := core.Encoded{Data: rec[:st.txnSize], Meta: rec[st.txnSize:], MetaBits: st.metaBits}
	return st.encBus.Transfer(&enc)
}

// recoverBatch returns the stream to a clean state after a failed batch:
// the codec restarts from scratch (stateful codecs may have advanced
// mid-batch; the client is told via the BatchError reset flag) and the
// bus accounting baselines resync so the partial batch's transfers never
// reach a BatchStats delta.
func (st *stream) recoverBatch() {
	st.codec.Reset()
	st.prevBase, st.prevEnc = st.baseBus.Stats(), st.encBus.Stats()
}
