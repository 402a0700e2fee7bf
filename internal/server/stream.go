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
// cache handle, fault budget, and batch-id space. The Hello opens stream 0
// implicitly and StreamOpen frames open the rest. A stream holds its codec
// and wire state and nothing per batch: a batch's scratch is the session's,
// and its records are encoded straight into the reply frame. All stream
// state is only ever touched by the session's goroutine, so stateful
// codecs see batches in arrival order.
type stream struct {
	ss  *session
	sid uint32

	schemeName string
	codec      core.Codec
	txnSize    int
	metaBits   int
	metaBytes  int
	// faults counts this stream's recoverable batch faults against the
	// configured budget. An exhausted budget kills only this stream;
	// sibling streams on the connection keep serving.
	faults int
	// stateful is the codec's snapshot interface, resolved at open
	// against the unwrapped codec (the chaos wrapper forwards only the
	// core.Codec surface). Nil when the scheme's state is not
	// transferable.
	stateful scheme.Stateful

	// cached, when non-nil, is the similarity tier for this stream's
	// (scheme, txnSize): a simcache.Encoder decorating the codec's batch
	// entry point, so repeated transactions are served without re-running
	// the codec.
	cached *simcache.Encoder

	// batches counts the stream's encoded batches: the sequence number
	// of its codec state.
	batches uint64

	// span is the current batch's one ledger: its trace id, stage times
	// and wire counters, each written once. It is recorded, into stages
	// and (for a reply) the trace ring, once the batch's answer is
	// written (answered, wrote). stages is the scheme's stage histogram
	// set, resolved once at open.
	span   obs.Span
	stages *obs.StageSet
	// onAnswered and onWrote are answered and wrote, bound once at open
	// for the session's Writer to run when an answer leaves. held is set
	// from the answer's send until then: the stream's next batch writes
	// the held answer out before its span is reused.
	onAnswered, onWrote func(time.Duration)
	held                bool
	// ready is when serveBatch built the current batch's reply, the
	// start of its frame_write time when the reply is held.
	ready time.Time
	// energy is the stream scheme's live wire-activity counter, resolved
	// once at open; every encoded batch folds its baseline and encoded bus
	// deltas into it, and the bxtd_transactions/bytes/batches_total
	// families render from it.
	energy *obs.EnergyCounter

	// baseBus and encBus carry the stream's wire state for baseline and
	// encoded transfers; their divergence is the value the gateway reports.
	baseBus, encBus   *bus.Bus
	prevBase, prevEnc bus.Stats

	// tally, when non-nil, is the stream's Universal codec, whose
	// encode-and-count kernel (EncodeTally) encodeAll runs for the stream's
	// batches. Otherwise they run the block adapter on batch: the codec's
	// native batch kernel or scheme.BatchEncoder's sequential adapter,
	// behind the cache decorator when the stream has one.
	tally *core.Universal
	batch core.BatchEncoder
}

// openStream builds one stream on the session: codec construction, the
// zero-transaction probe, chaos wrapping, and metric/histogram resolution.
// It does not register the stream with the session; the caller does, once
// the open is answered.
func (ss *session) openStream(sid uint32, name string, txnSize int) (*stream, error) {
	codec, err := scheme.New(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errSession, err)
	}

	st := &stream{
		ss:         ss,
		sid:        sid,
		schemeName: name,
		codec:      codec,
		txnSize:    txnSize,
		metaBits:   codec.MetaBits(txnSize),
		baseBus:    bus.New(ss.srv.cfg.ChannelWidthBits),
		encBus:     bus.New(ss.srv.cfg.ChannelWidthBits),
	}
	st.metaBytes = (st.metaBits + 7) / 8
	// Codecs without native BatchEncoder support run a sequential loop
	// behind the same call.
	st.batch = scheme.BatchEncoder(codec)
	// A bare Universal codec on its register kernel's shape encodes and
	// counts in one pass. A cache or a chaos wrapper decorates the codec's
	// batch entry, so their streams run the block adapter, as does any
	// other codec or shape.
	if k, ok := codec.(*core.Universal); ok && ss.srv.inj == nil && !ss.srv.cachesScheme(name, st.metaBits) &&
		k.Tallies(txnSize, st.baseBus.BeatBytes()) {
		st.tally = k
	}

	// Probe the entry the stream's batches will run with one zero
	// transaction on a throwaway bus and a one-record block, so a geometry
	// it rejects fails the open instead of the first batch.
	probe := make([]byte, txnSize+st.recLen())
	width := ss.srv.cfg.ChannelWidthBits
	probeBus := bus.New(width)
	if err := st.encodeAll(probe[txnSize:], 1, probe[:txnSize], probeBus, probeBus, make([]core.Encoded, 1)); err != nil {
		return nil, fmt.Errorf("%w: scheme %q cannot serve %d-byte transactions on a %d-bit channel: %v", errSession, name, txnSize, width, err)
	}
	codec.Reset()
	// Patch re-encoding resolves against the real codec: the chaos
	// wrapper below may perturb Encode, but a near-hit patch must
	// reproduce the clean encoding the cache stores.
	patcher, _ := codec.(core.PatchEncoder)
	// State transfer resolves against the real codec too: a wrapped codec
	// exposes only the core.Codec surface, so the Stateful interface must
	// be captured before chaos wrapping.
	st.stateful, _ = scheme.AsStateful(codec)
	// Chaos injection wraps the codec after the probe, so a configured
	// fault cannot fail an otherwise valid open. The wrapper exposes no
	// BatchEncoder, so its faults keep firing per transaction.
	if ss.srv.inj != nil {
		st.codec = ss.srv.inj.WrapCodec(codec)
		st.batch = scheme.BatchEncoder(st.codec)
	}

	stages := []obs.Stage{obs.StageFrameRead, obs.StageAdmission, obs.StageEncode, obs.StageAccount, obs.StageFrameWrite}
	st.energy = ss.srv.met.energy.Counter(name)
	if cache := ss.srv.simCacheFor(name, txnSize, st.metaBits); cache != nil {
		st.cached = simcache.NewEncoder(cache, st.batch, patcher)
		st.batch = st.cached
		stages = append(stages, obs.StageSimcacheLookup)
	}
	st.stages = ss.srv.met.stages.Set(name, stages...)
	st.onAnswered, st.onWrote = st.answered, st.wrote
	return st, nil
}

// log writes a record through the session's logger under the stream's
// keys, stream and scheme.
func (st *stream) log(level slog.Level, msg string, args ...any) {
	ctx := context.Background()
	if l := st.ss.log; l.Enabled(ctx, level) {
		l.Log(ctx, level, msg, append([]any{"stream", st.sid, "scheme", st.schemeName}, args...)...)
	}
}

// send writes a t frame on the stream: the stream-id prefix, then the
// stream-local body.
func (st *stream) send(t trace.FrameType, body []byte) {
	st.ss.w.SendStream(t, st.sid, body, nil)
}

// answer sends a BatchError or Busy frame answering the current batch,
// recording the batch's span once the frame is written.
func (st *stream) answer(t trace.FrameType, body []byte) {
	st.held = true
	st.ss.w.SendStream(t, st.sid, body, st.onAnswered)
}

// handleBatch runs one Batch frame body (already stripped of its
// stream-id prefix) through envelope validation, parsing, admission, and
// encoding, and writes whatever reply the outcome calls for. Every batch
// fault is recoverable, so the session never closes on one.
func (st *stream) handleBatch(body []byte, readDur time.Duration) {
	ss := st.ss
	if st.held {
		ss.w.Flush()
	}
	// A damaged envelope yields trace id 0: its frame_read sample carries
	// no exemplar.
	id, traceID, payload, err := trace.OpenTraceEnvelope(body)
	st.span.Reset(traceID, id, ss.id, st.schemeName)
	st.span.Observe(obs.StageFrameRead, readDur)
	if err != nil {
		// OpenTraceEnvelope keeps the id on CRC failures, so the client
		// can retry the exact batch that arrived corrupt.
		st.softFail(id, false, err.Error())
		return
	}
	n, data, err := trace.OpenBatch(payload, st.txnSize)
	if err != nil {
		st.softFail(id, false, err.Error())
		return
	}
	if n == 0 || n > ss.srv.cfg.BatchLimit {
		st.softFail(id, false, fmt.Sprintf("batch of %d transactions outside [1, %d]", n, ss.srv.cfg.BatchLimit))
		return
	}
	// The worker pool bounds concurrent encodes across all sessions: a
	// batch waits a bounded time and may be shed with a retryable Busy
	// reply.
	admStart := time.Now()
	if !ss.srv.admit() {
		ss.srv.met.busyShed.Add(1)
		ss.srv.events.Add(obs.Event{Type: obs.EventBusy, Session: ss.id, Scheme: st.schemeName, Txns: n, TraceID: traceID})
		st.answer(trace.FrameBusy, trace.MarshalBusy(id, ss.srv.cfg.AdmitTimeout))
		return
	}
	// Shed batches never reach here, so the admission stage counts
	// admitted batches and its histogram reflects successful waits.
	st.span.Observe(obs.StageAdmission, time.Since(admStart))
	reply, err := st.serveBatch(id, n, data)
	ss.srv.release()
	if err != nil {
		if errors.Is(err, errCodecPanic) {
			st.quarantine(id, n, payload, err)
		}
		// Encoding began, so the codec was reset (recoverBatch); the
		// client learns via the reset flag to restart its decoder.
		st.softFail(id, true, err.Error())
		return
	}
	st.held = true
	ss.w.Write(reply, st.ready, st.onWrote)
}

// answered records the span of a batch answered without a reply.
func (st *stream) answered(time.Duration) {
	st.held = false
	st.stages.Record(&st.span)
}

// wrote finishes a written reply's span with its frame_write sample and
// records it, into the stage histograms and the trace ring. Only replies
// reach frame_write, so its count matches codec_encode's: batches encoded
// == batches replied.
func (st *stream) wrote(d time.Duration) {
	st.held = false
	st.span.Observe(obs.StageFrameWrite, d)
	st.stages.Record(&st.span)
	st.ss.srv.met.traces.Add(&st.span)
}

// softFail records one recoverable batch fault, answered with a BatchError
// reply. The fault budget is per stream: exhaustion kills only this stream
// (StreamClosed), and sibling streams on the connection keep serving.
func (st *stream) softFail(id uint64, reset bool, cause string) {
	ss := st.ss
	st.faults++
	ss.srv.met.batchFaults.Add(1)
	st.log(slog.LevelWarn, "batch fault", "batch_id", id, "codec_reset", reset, "err", cause)
	ss.srv.events.Add(obs.Event{Type: obs.EventBatchFault, Session: ss.id, Scheme: st.schemeName, Detail: cause, TraceID: st.span.TraceID})
	st.answer(trace.FrameBatchError, trace.MarshalBatchError(id, reset, cause))
	if st.faults >= ss.srv.cfg.FaultBudget {
		msg := fmt.Sprintf("fault budget exhausted after %d recoverable faults", st.faults)
		ss.srv.met.streamKills.Add(1)
		ss.srv.events.Add(obs.Event{Type: obs.EventFaultBudget, Session: ss.id, Scheme: st.schemeName, Detail: msg})
		st.log(slog.LevelWarn, "closing stream", "reason", msg)
		ss.closeStream(st, msg)
		ss.streams.Remove(st.sid, msg)
	}
}

// quarantine records a batch whose codec encode panicked: the poison ring
// keeps a bounded prefix of the raw payload for offline reproduction.
func (st *stream) quarantine(id uint64, txns int, payload []byte, err error) {
	ss := st.ss
	ss.srv.met.codecPanics.Add(1)
	ss.srv.poison.add(ss.id, st.schemeName, id, txns, payload, err.Error())
	st.log(slog.LevelWarn, "codec panic recovered; batch quarantined", "batch_id", id, "txns", txns, "err", err)
	ss.srv.events.Add(obs.Event{Type: obs.EventCodecPanic, Session: ss.id, Scheme: st.schemeName, Txns: txns, Detail: err.Error()})
}

// serveBatch encodes one batch of n transactions, whose payloads are
// data, with the stream codec, charges the baseline and encoded transfers
// to the stream's bus models, and builds the BatchReply frame, noting in
// ready when it was built: the end of accounting, a clock read phy_account
// already takes. The batch's count fixes the reply's size, so its frame is
// reserved once, exactly, at the end of the Writer's block, and every
// record is encoded at its final offset in it; the head (stream id,
// envelope, BatchStats) is written after accounting, and its CRC is a
// separate pass over the sealed frame, since it covers the BatchStats
// the accounting produces. Encoding and bus accounting run as one call
// (encodeAll), in one pass for the XOR codecs, and are timed together as
// the codec_encode stage; the phy_account stage covers the batch's
// statistics and power estimate. Any error return leaves the
// stream serviceable: recoverBatch has reset the codec and discarded the
// partial batch's bus deltas (the caller relays the reset to the client).
func (st *stream) serveBatch(id uint64, n int, data []byte) ([]byte, error) {
	ss := st.ss
	if hook := ss.srv.testHookBatch; hook != nil {
		hook()
	}
	size := trace.BatchReplyHeadBytes + n*st.recLen()
	frame := ss.w.Block(size)[:size]
	encStart := time.Now()
	err := st.encodeAll(frame[trace.BatchReplyHeadBytes:], n, data, st.baseBus, st.encBus, ss.blockScratch())
	var lookups time.Duration
	if st.cached != nil {
		lookups = st.cached.TakeLookupTime()
	}
	if err != nil {
		st.recoverBatch()
		return nil, err
	}
	accStart := time.Now()
	if st.cached != nil {
		// The lookup time is buried inside the encode pass; surface it as
		// its own stage, sampled the way the decorator times it.
		st.span.Observe(obs.StageSimcacheLookup, lookups)
	}
	st.span.Observe(obs.StageEncode, accStart.Sub(encStart))

	baseNow, encNow := st.baseBus.Stats(), st.encBus.Stats()
	baseDelta := baseNow.Sub(st.prevBase)
	encDelta := encNow.Sub(st.prevEnc)
	st.prevBase, st.prevEnc = baseNow, encNow

	stats := trace.BatchStats{
		Transactions:  uint32(n),
		DataBits:      uint64(baseDelta.DataBits),
		OnesBefore:    uint64(baseDelta.Ones()),
		OnesAfter:     uint64(encDelta.Ones()),
		TogglesBefore: uint64(baseDelta.Toggles()),
		TogglesAfter:  uint64(encDelta.Toggles()),
		BaselinePJ:    ss.srv.model.Estimate(baseDelta).Total() * 1e12,
		EncodedPJ:     ss.srv.model.Estimate(encDelta).Total() * 1e12,
	}
	st.energy.Observe(baseDelta, encDelta)
	done := time.Now()
	st.span.Observe(obs.StageAccount, done.Sub(accStart))
	st.span.Txns = n
	st.span.DataBits = stats.DataBits
	st.span.BaseOnes, st.span.EncOnes = stats.OnesBefore, stats.OnesAfter
	st.span.BaseToggles, st.span.EncToggles = stats.TogglesBefore, stats.TogglesAfter
	st.batches++

	if total := done.Sub(encStart); total >= ss.srv.cfg.SlowBatch {
		st.log(slog.LevelWarn, "slow batch", "txns", n, "took", total.Round(time.Microsecond).String())
		ss.srv.events.Add(obs.Event{
			Type:       obs.EventSlowBatch,
			Session:    ss.id,
			Scheme:     st.schemeName,
			Txns:       n,
			DurationMS: float64(total) / float64(time.Millisecond),
			TraceID:    st.span.TraceID,
		})
	} else if ss.log.Enabled(context.Background(), slog.LevelDebug) {
		// Gated so the duration formatting does not allocate on every
		// batch at the default info level.
		st.log(slog.LevelDebug, "batch", "txns", n, "took", total.Round(time.Microsecond).String())
	}

	// The reply body leads with the stream id; the envelope and its CRC
	// cover the rest. Echoing the trace id lets the client verify the
	// reply belongs to the trace it started. The head fills the frame's
	// room ahead of the records exactly, so these appends write in place.
	head := trace.AppendStreamID(trace.BeginFrame(frame[:0]), st.sid)
	head = trace.AppendTraceEnvelope(head, id, st.span.TraceID)
	trace.AppendBatchStats(head, stats)
	if err := trace.SealBatchEnvelope(frame[trace.FrameHeaderBytes+4:]); err != nil {
		return nil, err // unreachable: the envelope was just appended
	}
	if err := trace.SealFrame(frame, trace.FrameBatchReply); err != nil {
		st.recoverBatch()
		return nil, err
	}
	st.ready = done
	return frame, nil
}

// batchBlockTxns is the cache-blocking factor of the block adapter: the
// source block and its record windows (64 × 32 B = 2 KiB each for the
// paper's workload) both stay L1-resident from the encode walk through the
// accounting walk, while still amortizing per-call overheads.
const batchBlockTxns = 64

// blockScratch returns the block adapter's records, which every stream on
// the session shares (it encodes one batch at a time), reserved at
// batchBlockTxns on the session's first batch.
func (ss *session) blockScratch() []core.Encoded {
	if ss.batchEnc == nil {
		ss.batchEnc = make([]core.Encoded, batchBlockTxns)
	}
	return ss.batchEnc
}

// encodeAll is the stream's one encode path: it encodes the n payloads of
// data, the Batch frame's data block in place in the read buffer, into
// recs, the reply frame's record area, and charges the baseline and
// encoded transfers to base and enc. A stream with an encode-and-count
// kernel (tally) encodes and counts the whole batch in one pass and
// charges the counts to the buses. Any other stream runs the block
// adapter (encodeBlocks) on blocks of len(blk) records. A codec panic
// becomes errCodecPanic, so one poisonous batch cannot take down the
// process (or even the stream).
func (st *stream) encodeAll(recs []byte, n int, data []byte, base, enc *bus.Bus, blk []core.Encoded) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errCodecPanic, r)
		}
	}()
	if st.tally == nil {
		return st.encodeBlocks(recs, n, data, base, enc, blk)
	}
	t, err := st.tally.EncodeTally(recs, data, n, st.txnSize, base.BeatBytes())
	if err != nil {
		return fmt.Errorf("scheme %s: encoding batch: %v", st.schemeName, err)
	}
	if err := base.ChargeBatch(data, st.txnSize, t.SrcOnes, t.SrcToggles); err != nil {
		return err
	}
	return enc.ChargeBatch(recs, st.txnSize, t.EncOnes, t.EncToggles)
}

// encodeBlocks is encodeAll's adapter for a stream without an
// encode-and-count kernel. The batch runs in blocks of len(blk)
// transactions; a block's source is its slice of data, so no payload is
// copied before it is encoded. The block's records (blk) are pointed at
// adjacent recs windows of txnSize+metaBytes bytes, so one EncodeBatch
// call writes the reply payload in place; each record is then settled and
// the block charged to both buses while it is still L1-resident.
func (st *stream) encodeBlocks(recs []byte, n int, data []byte, base, enc *bus.Bus, blk []core.Encoded) error {
	for start := 0; start < n; start += len(blk) {
		end := min(start+len(blk), n)
		src := data[start*st.txnSize : end*st.txnSize]
		dst := blk[:end-start]
		for i := range dst {
			st.pointRecord(&dst[i], recs, start+i)
		}
		if err := st.batch.EncodeBatch(dst, src, len(dst), st.txnSize); err != nil {
			return fmt.Errorf("scheme %s: encoding batch: %v", st.schemeName, err)
		}
		for i := range dst {
			if err := st.settleRecord(&dst[i], recs, start+i); err != nil {
				return err
			}
		}
		if err := base.TransferBatch(src, st.txnSize); err != nil {
			return err
		}
		if err := enc.TransferRecords(recs[start*st.recLen():end*st.recLen()], st.txnSize, st.metaBits); err != nil {
			return err
		}
	}
	return nil
}

// recLen is the size of one reply record: the encoded data plus its
// side-band metadata bytes, the fixed geometry the client parses.
func (st *stream) recLen() int { return st.txnSize + st.metaBytes }

// record returns record idx's window of recs.
func (st *stream) record(recs []byte, idx int) []byte {
	off := idx * st.recLen()
	return recs[off : off+st.recLen() : off+st.recLen()]
}

// pointRecord aims dst's data and metadata at record idx's window of recs,
// so the batch kernel encodes it in place.
func (st *stream) pointRecord(d *core.Encoded, recs []byte, idx int) {
	rec := st.record(recs, idx)
	d.Data = rec[:st.txnSize:st.txnSize]
	d.Meta = rec[st.txnSize:st.txnSize]
	d.MetaBits = 0
}

// settleRecord verifies the codec encoded record idx into its window of
// recs, copying back a record a misbehaving (or fault-injected) codec
// regrew elsewhere and rejecting one with the wrong geometry.
func (st *stream) settleRecord(d *core.Encoded, recs []byte, idx int) error {
	if len(d.Data) != st.txnSize || d.MetaBits != st.metaBits || len(d.Meta) != st.metaBytes {
		return fmt.Errorf("scheme %s: record %d has %d data bytes and %d meta bits, want %d and %d",
			st.schemeName, idx, len(d.Data), d.MetaBits, st.txnSize, st.metaBits)
	}
	rec := st.record(recs, idx)
	if &d.Data[0] != &rec[0] {
		copy(rec, d.Data)
	}
	if st.metaBytes != 0 && &d.Meta[0] != &rec[st.txnSize] {
		copy(rec[st.txnSize:], d.Meta)
	}
	return nil
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
