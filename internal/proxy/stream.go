package proxy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// pstream is one logical client stream being relayed: its scheme, the
// routing mode picked at open, the backend pin (decode-stateful schemes),
// and the shadow-snapshot machinery for seamless pin failover. Every
// stream routes independently — stateless streams spread batch-by-batch,
// stateful streams pin and state-migrate per stream.
type pstream struct {
	ss  *session
	sid uint32

	schemeName string
	txnSize    int
	// pinned marks a decode-stateful scheme: all of this stream's batches
	// go to one backend (pin), rendezvous-chosen, and a pin migration
	// forces a client codec reset unless the state can be transferred.
	// Stateless streams instead spread batch-by-batch.
	pinned bool
	pin    *backend
	// legs holds the stream's session on each backend it is open on: a
	// client.Session under the stream's own id, on the session's
	// connection to that backend.
	legs map[*backend]*client.Session
	// snapshottable marks a pinned stream whose codec state can be pulled
	// and replayed (scheme.Snapshottable): a pin migration
	// then moves the upstream codec state to the new backend instead of
	// resetting the client. shadow/shadowSeq hold the last shadow snapshot
	// pulled from the pin (hasShadow gates first use); a shadow is usable
	// for failover only while its sequence still equals the stream's
	// relayed batch count.
	snapshottable bool
	shadow        []byte
	shadowSeq     uint64
	hasShadow     bool

	batches uint64

	// openOK briefly holds the backend's raw StreamOpenOK body after
	// acquireUpstream opens this stream on a backend connection, so the
	// session can relay the verdict verbatim to the client.
	openOK []byte
	// avoid is the backend that relayed this stateless stream's last
	// Busy or BatchError; the retry that follows routes elsewhere when
	// another backend is eligible, so a backend-side fault that repeats
	// (a backend whose codec faults every batch, say) cannot absorb every
	// retry.
	avoid *backend

	// span is the current batch's one ledger on the relay leg: its trace
	// id and its frame_read, backend_exchange and frame_write times, each
	// written once. Once the batch is answered it is recorded into the
	// stream's stage histograms and, for a relayed reply, the proxy's
	// /debug/trace ring. stages is the scheme's stage histogram set,
	// resolved once at open.
	span   obs.Span
	stages *obs.StageSet
	// onAnswered and onWrote are answered and wrote, bound once at open
	// for the client leg's Writer to run when an answer leaves. held is
	// set from the answer's send until then: the stream's next batch
	// writes the held answer out before its span is reused.
	onAnswered, onWrote func(time.Duration)
	held                bool
}

// handleBatch relays one Batch frame to a backend and the reply back to
// the client. Frames relay verbatim in both directions, each written
// whole, header included, straight from the read buffer it arrived in —
// the stream-id prefix rides along untouched, and only the interior past
// it is parsed for validation. An error ends the session.
func (st *pstream) handleBatch(frame, interior []byte, readDur time.Duration) error {
	ss := st.ss
	if st.held {
		if err := ss.w.Flush(); err != nil {
			return err
		}
	}
	// The trace id rides the envelope payload; the body still relays
	// verbatim, the proxy only reads it for its own spans. A damaged
	// envelope yields trace id 0, so its frame_read sample carries no
	// exemplar.
	id, traceID, _, err := trace.OpenTraceEnvelope(interior)
	st.span.Reset(traceID, id, ss.id, st.schemeName)
	st.span.Observe(obs.StageFrameRead, readDur)
	if err != nil {
		if len(interior) < 12 {
			st.answered(0) // the session ends without answering it
			return err
		}
		// Client-leg corruption: answer the recoverable fault here instead
		// of burning a backend round trip; the carried id is best effort,
		// exactly as on the gateway.
		id = binary.LittleEndian.Uint64(interior[:8])
		return st.answer(trace.FrameBatchError, trace.MarshalBatchError(id, false, err.Error()))
	}

	leg, b, err := st.acquireUpstream()
	if err != nil {
		return st.convertFailure(id, err)
	}
	b.pending.Add(1)
	start := time.Now()
	ft, rbody, rframe, err := leg.Exchange(frame, ss.p.cfg.ExchangeTimeout)
	b.pending.Add(-1)
	backDur := time.Since(start)
	st.span.Observe(obs.StageBackend, backDur)
	var a trace.Answer
	if err == nil {
		a, err = trace.CheckBatch(ft, rbody, st.sid, id, traceID)
	}
	if err != nil {
		// A failed exchange or a damaged answer counts toward ejection.
		// An Error frame does not: the backend ended this connection
		// (idle timeout, drain, fault budget) but is alive enough to speak
		// BXTP, so only the connection is dropped.
		ss.dropUpstream(b)
		if !errors.Is(err, client.ErrServer) {
			ss.p.noteBackendFailure(b, "exchange", err)
		}
		return st.convertFailure(id, fmt.Errorf("backend %s: %v", b.addr, err))
	}
	// The client leg's Writer has the answer — sent, or copied into its
	// block — once Write returns, so the leg then hands its read buffer
	// back.
	defer leg.Release()
	switch a.Kind {
	case trace.AnswerKilled:
		// The backend killed exactly this stream (fault budget exhausted)
		// while the connection and its sibling streams keep serving. The
		// kill relays to the client with the backend's cause and the
		// proxy forgets the stream, so a client re-open builds fresh
		// routing state, mirroring the gateway. The stream's legs on other
		// backends stay registered there, not closed: such a backend may
		// have killed the stream too, unread, and a close of a stream it
		// lacks ends the connection. upstreamOn re-opens a registered
		// stream afresh.
		leg.Close()
		ss.p.met.streamKills.Add(1)
		st.answered(0)
		st.unpin()
		ss.log.Info("stream killed by backend", "stream", st.sid, "backend", b.addr, "msg", a.Msg)
		return ss.streams.Remove(st.sid, a.Msg)
	case trace.AnswerBusy, trace.AnswerFault:
		// The backend shed or faulted the batch but kept the stream:
		// relay the recoverable reply verbatim. CheckBatch found it
		// well-formed and answering this batch, so backend-leg corruption
		// became a conversion above instead of a parse error that would
		// cost the client its connection.
		ss.p.noteBackendOK(b)
		ss.p.met.relayedFaults.Add(1)
		if !st.pinned {
			st.avoid = b
		}
		st.held = true
		return ss.w.Write(rframe, time.Time{}, st.onAnswered)
	}
	ss.p.noteBackendOK(b)
	b.batches.Add(1)
	b.observeExchange(st.schemeName, backDur)
	st.batches++
	// The relayed BatchStats prefix carries the backend's wire accounting
	// for this batch; fold it into the per-backend energy counter and the
	// relay span so the proxy's telemetry aggregates what its fleet
	// actually moved.
	if stats, _, serr := trace.ParseBatchStats(a.Payload); serr == nil {
		b.energy.Observe(
			obs.SyntheticStats(int(stats.Transactions), stats.DataBits, stats.OnesBefore, stats.TogglesBefore),
			obs.SyntheticStats(int(stats.Transactions), stats.DataBits, stats.OnesAfter, stats.TogglesAfter),
		)
		st.span.Txns = int(stats.Transactions)
		st.span.DataBits = stats.DataBits
		st.span.BaseOnes, st.span.EncOnes = stats.OnesBefore, stats.OnesAfter
		st.span.BaseToggles, st.span.EncToggles = stats.TogglesBefore, stats.TogglesAfter
	}
	// A held reply's frame_write runs from the exchange's end, a clock
	// read backend_exchange already took.
	st.held = true
	if err := ss.w.Write(rframe, start.Add(backDur), st.onWrote); err != nil {
		return err
	}
	if st.snapshottable && ss.p.cfg.ShadowInterval > 0 &&
		st.batches%uint64(ss.p.cfg.ShadowInterval) == 0 {
		st.pullShadow(leg, b)
	}
	return nil
}

// answer sends a Busy or BatchError frame answering the current batch,
// recording its relay span once the frame is written.
func (st *pstream) answer(t trace.FrameType, body []byte) error {
	st.held = true
	return st.ss.w.SendStream(t, st.sid, body, st.onAnswered)
}

// answered records the relay span of a batch answered without a relayed
// reply: a Busy or BatchError frame, relayed or converted, or a stream
// kill.
func (st *pstream) answered(time.Duration) {
	st.held = false
	st.stages.Record(&st.span)
}

// wrote finishes a relayed reply's span with its frame_write sample and
// records it, into the stage histograms and the trace ring.
func (st *pstream) wrote(d time.Duration) {
	st.held = false
	st.span.Observe(obs.StageFrameWrite, d)
	st.stages.Record(&st.span)
	st.ss.p.met.traces.Add(&st.span)
}

// convertFailure turns an upstream failure into a recoverable reply: Busy
// (retry elsewhere) for stateless streams, BatchError with the codec-reset
// flag (retry after an Epoch bump) for pinned streams — re-pinning first so
// the retry lands on a survivor. Other streams on the session never
// notice.
func (st *pstream) convertFailure(id uint64, cause error) error {
	ss := st.ss
	if st.pinned {
		ss.p.met.faultConverted.Add(1)
		st.pinTarget()
		return st.answer(trace.FrameBatchError, trace.MarshalBatchError(id, true, "proxy: backend failed, codec state lost: "+cause.Error()))
	}
	ss.p.met.busyConverted.Add(1)
	return st.answer(trace.FrameBusy, trace.MarshalBusy(id, ss.p.cfg.RetryHint))
}

// acquireUpstream returns the stream's leg on the backend the routing
// policy picks, opening the stream there, and dialing the backend first,
// when it is not open yet. Dial and stream-open failures count toward
// ejection and fail over to the next candidate; a connection the backend
// ended with an Error frame is redialed uncounted; a refusal surfaces
// immediately, because every backend would refuse the same parameters.
func (st *pstream) acquireUpstream() (*client.Session, *backend, error) {
	ss := st.ss
	backends := ss.p.backendList()
	excluded := make(map[*backend]bool)
	if st.avoid != nil {
		excluded[st.avoid] = true
		if ss.p.pickStateless(st.schemeName, excluded) == nil {
			delete(excluded, st.avoid) // nowhere else to go
		}
		st.avoid = nil
	}
	for attempt := 0; attempt <= len(backends); attempt++ {
		var b *backend
		if st.pinned {
			prev := st.pin
			b = st.pinTarget()
			if b != nil && prev != nil && b != prev {
				// The pin was lost (ejected, or draining for a rollout)
				// before this batch's exchange could fail on it. Serving
				// the batch from the fresh pin's blank codec would
				// silently desynchronize the client's decode-stateful
				// decoder, so first try to move the upstream codec state
				// itself: a live pull from the old backend if it still
				// answers, else the last shadow snapshot if no batch has
				// landed since. Success means the client never notices.
				// Only when no current state can be transferred does the
				// migration surface as a failure, which the caller
				// converts to a BatchError with the codec-reset flag,
				// exactly as if the exchange itself had died.
				if leg := st.migrateState(prev, b); leg != nil {
					return leg, b, nil
				}
				return nil, nil, errPinLost
			}
		} else {
			b = ss.p.pickStateless(st.schemeName, excluded)
		}
		if b == nil || excluded[b] {
			break
		}
		leg, step, err := st.upstreamOn(b)
		switch {
		case err == nil:
			return leg, b, nil
		case errors.Is(err, errRefused):
			return nil, nil, err
		case !errors.Is(err, client.ErrServer):
			ss.p.noteBackendFailure(b, step, err)
			excluded[b] = true
		}
	}
	return nil, nil, errNoBackend
}

// upstreamOn returns the stream's leg on b: it dials b first when the
// session has no connection there, and opens the stream with a StreamOpen
// exchange on first use (the Hello opened stream 0; a stream the backend
// killed, stream 0 included, opens afresh). A stream still registered on
// the connection — left there by a kill on another backend — may still be
// open on b with its old codec: when b refuses to open it, it is closed
// and opened afresh. Any failure but a refusal drops the connection; step
// names the step that failed.
func (st *pstream) upstreamOn(b *backend) (*client.Session, string, error) {
	ss := st.ss
	if ss.ups[b] == nil {
		if err := ss.dial(b, st); err != nil {
			return nil, "dial", err
		}
	}
	if leg := st.legs[b]; leg != nil {
		return leg, "", nil
	}
	leg, registered, err := ss.ups[b].Stream(st.sid)
	if err == nil {
		err = st.openOn(leg, b)
		if registered && errors.Is(err, errRefused) {
			// The backend still has the stream, with the codec it had
			// before the kill elsewhere (had it killed the stream too, the
			// open would have skipped the notice and opened it): close it,
			// and open it afresh.
			if err = st.closeOn(leg, b); err == nil {
				err = st.openOn(leg, b)
			}
		}
	}
	switch {
	case err == nil:
		st.legs[b] = leg
		return leg, "", nil
	case errors.Is(err, errRefused):
		leg.Close() // the backend holds no such stream
	default:
		ss.dropUpstream(b)
	}
	return nil, "stream-open", err
}

// openOn opens the stream on leg, on backend b, with one StreamOpen
// exchange, keeping the backend's verdict in openOK so the session can
// relay it verbatim. A refusal wraps errRefused and leaves the connection
// usable; any other error means it may be out of step.
func (st *pstream) openOn(leg *client.Session, b *backend) error {
	body, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: st.sid, TxnSize: st.txnSize, Scheme: st.schemeName})
	if err != nil {
		return err
	}
	ft, rbody, err := st.ss.request(leg, trace.FrameStreamOpen, body, st.ss.p.cfg.ExchangeTimeout)
	if err != nil {
		return err
	}
	defer leg.Release()
	a, err := trace.CheckStreamOpen(ft, rbody, st.sid)
	if err != nil {
		return fmt.Errorf("proxy: backend %s: %w", b.addr, err)
	}
	st.openOK = append(st.openOK[:0], rbody...)
	if a.Kind == trace.AnswerRefused {
		return fmt.Errorf("%w %s: %s", errRefused, b.addr, a.Msg)
	}
	return nil
}

// closeOn retires the stream on leg, on backend b, with one StreamClose
// exchange.
func (st *pstream) closeOn(leg *client.Session, b *backend) error {
	ft, rbody, err := st.ss.request(leg, trace.FrameStreamClose, trace.MarshalStreamClose(st.sid), st.ss.p.cfg.ExchangeTimeout)
	if err != nil {
		return err
	}
	rsid, _, err := trace.ParseStreamClosed(rbody)
	if ft != trace.FrameStreamClosed || err != nil || rsid != st.sid {
		return fmt.Errorf("proxy: backend %s: malformed answer closing stream %d (frame %#x, stream %d, err %v)",
			b.addr, st.sid, byte(ft), rsid, err)
	}
	return nil
}

// pullSnapshot asks leg's backend b for the stream's codec state over a
// StateSnapshot exchange. It returns the state blob (copied, so it
// survives later exchanges) and the batch sequence it is current as of.
func (st *pstream) pullSnapshot(leg *client.Session, b *backend) (uint64, []byte, error) {
	seq, blob, err := st.stateExchange(leg, b, trace.FrameStateSnapshot, nil)
	blob = append([]byte(nil), blob...)
	leg.Release()
	return seq, blob, err
}

// stateExchange runs one state-transfer exchange (ft, then body) for the
// stream on leg within StateTransferTimeout and returns the StateAck's
// sequence and payload, which is valid until leg's next request or
// Release. A clean rejection wraps errStateRejected; any other error means
// the connection may be out of step and should be dropped.
func (st *pstream) stateExchange(leg *client.Session, b *backend, ft trace.FrameType, body []byte) (uint64, []byte, error) {
	ft, rbody, err := st.ss.request(leg, ft, append(trace.AppendStreamID(nil, st.sid), body...), st.ss.p.cfg.StateTransferTimeout)
	if err != nil {
		return 0, nil, err
	}
	if ft != trace.FrameStateAck {
		return 0, nil, fmt.Errorf("proxy: backend %s answered a state transfer with frame %#x", b.addr, byte(ft))
	}
	rsid, rbody, err := trace.SplitStreamID(rbody)
	if err == nil && rsid != st.sid {
		err = fmt.Errorf("proxy: backend %s answered on stream %d, want %d", b.addr, rsid, st.sid)
	}
	if err != nil {
		return 0, nil, err
	}
	status, seq, payload, err := trace.ParseStateAck(rbody)
	if err == nil && status != trace.StateOK {
		err = fmt.Errorf("%w: backend %s: %s", errStateRejected, b.addr, payload)
	}
	return seq, payload, err
}

// migrateState moves a pinned stream's upstream codec state from its lost
// pin onto the new one, so the client's decoder continues byte-identically
// with no epoch bump. It returns the stream's leg on the new pin on
// success, nil when the transfer could not be completed and the caller
// must fall back to a client-side reset.
func (st *pstream) migrateState(prev, next *backend) *client.Session {
	ss := st.ss
	if !st.snapshottable {
		ss.p.met.stateUnsupported.Add(1)
		return nil
	}
	var seq uint64
	var blob []byte
	fromShadow := false
	if old := st.legs[prev]; old != nil {
		// The old pin may still answer — a draining backend always
		// does, and even an ejected one often can (the ejection may have
		// been a probe racing a restart).
		s, b, err := st.pullSnapshot(old, prev)
		switch {
		case err != nil:
			ss.log.Debug("live state pull failed", "backend", prev.addr, "err", err)
			if !errors.Is(err, errStateRejected) {
				// The connection may be out of step; drop it so sibling
				// streams redial cleanly.
				ss.dropUpstream(prev)
			}
		case s != st.batches:
			ss.log.Debug("live state pull stale", "backend", prev.addr, "seq", s, "batches", st.batches)
		default:
			seq, blob = s, b
		}
	}
	if blob == nil && st.hasShadow && st.shadowSeq == st.batches {
		seq, blob, fromShadow = st.shadowSeq, st.shadow, true
	}
	if blob == nil {
		ss.p.met.stateSnapFailed.Add(1)
		return nil
	}
	if ss.p.inj != nil {
		blob = ss.p.inj.WrapSnapshot(blob)
	}
	leg, step, err := st.upstreamOn(next)
	if err != nil {
		ss.p.met.stateRestFailed.Add(1)
		ss.log.Warn("state transfer failed: "+step, "backend", next.addr, "err", err)
		return nil
	}
	// The backend acks the restore with the echoed sequence; a rejection
	// leaves its stream freshly reset.
	aseq, _, err := st.stateExchange(leg, next, trace.FrameStateRestore, trace.MarshalStateRestore(seq, blob))
	leg.Release()
	if err == nil && aseq != seq {
		err = fmt.Errorf("proxy: backend %s acked restore at sequence %d, want %d", next.addr, aseq, seq)
	}
	if err != nil {
		if !errors.Is(err, errStateRejected) {
			ss.dropUpstream(next)
		}
		ss.p.met.stateRestFailed.Add(1)
		ss.log.Warn("state transfer failed: restore", "backend", next.addr, "err", err)
		return nil
	}
	if fromShadow {
		ss.p.met.stateOKShadow.Add(1)
	} else {
		ss.p.met.stateOK.Add(1)
	}
	ss.log.Info("stream state migrated", "stream", st.sid,
		"from", prev.addr, "to", next.addr, "seq", seq, "bytes", len(blob), "shadow", fromShadow)
	return leg
}

// pullShadow refreshes the stream's shadow snapshot from its pinned
// backend, so a pin that dies without warning can still be failed over
// from state no older than ShadowInterval batches — and usable whenever
// no batch has landed since the pull.
func (st *pstream) pullShadow(leg *client.Session, b *backend) {
	ss := st.ss
	seq, blob, err := st.pullSnapshot(leg, b)
	if err != nil {
		if errors.Is(err, errStateRejected) {
			// The backend answered cleanly: snapshots are simply not
			// available for this stream. Stop asking.
			st.snapshottable = false
			ss.log.Warn("shadow snapshots disabled", "backend", b.addr, "stream", st.sid, "err", err)
			return
		}
		// The connection may be out of step; drop it so the next batch
		// redials cleanly.
		ss.log.Debug("shadow snapshot failed", "backend", b.addr, "err", err)
		ss.dropUpstream(b)
		return
	}
	st.shadow, st.shadowSeq, st.hasShadow = blob, seq, true
	ss.p.met.shadowPulls.Add(1)
}

// pinKey is the rendezvous key this stream hashes with: stream 0 keeps
// the session id, further streams scramble (session, stream) so one
// session's pins spread independently across the ring.
func (st *pstream) pinKey() uint64 {
	if st.sid == 0 {
		return st.ss.id
	}
	k := st.ss.id ^ (uint64(st.sid)+1)*0x9E3779B97F4A7C15
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	return k
}

// pinTarget returns the backend this pinned stream routes to, migrating
// the pin (and the per-backend gauges) when the current one is ejected or
// draining.
func (st *pstream) pinTarget() *backend {
	if st.pin != nil && !st.pin.ejected.Load() && !st.pin.draining.Load() {
		return st.pin
	}
	nb := st.ss.p.pickPinned(st.pinKey())
	if nb == nil {
		return nil
	}
	if nb != st.pin {
		if st.pin != nil {
			st.pin.pinned.Add(-1)
			st.ss.p.met.repins.Add(1)
			st.ss.log.Info("stream re-pinned", "stream", st.sid, "from", st.pin.addr, "to", nb.addr)
		}
		nb.pinned.Add(1)
		st.pin = nb
	}
	return nb
}

// unpin releases the stream's pin gauge at close or session teardown.
func (st *pstream) unpin() {
	if st.pin != nil {
		st.pin.pinned.Add(-1)
		st.pin = nil
	}
}
