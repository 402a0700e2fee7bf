package server

import (
	"bytes"
	"fmt"
	"log/slog"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// State-transfer admin frames (internal/trace): a StateSnapshot request
// serializes the session's complete stream state — codec, then baseline
// bus, then encoded bus, each in its own internal/snap envelope — and a
// StateRestore installs such a blob into a fresh session. Both are served
// from the session goroutine at batch boundaries, where it has exclusive
// ownership of the codec and both buses, so no locking is needed and a
// snapshot can never observe a half-encoded batch.

// handleStateSnapshot answers one StateSnapshot frame with a StateAck
// carrying the serialized session state and the batch sequence it is
// current as of. Sessions on non-snapshottable schemes answer
// StateUnsupported; the session stays serviceable either way.
func (st *stream) handleStateSnapshot() {
	if st.stateful == nil {
		st.send(trace.FrameStateAck, trace.MarshalStateAck(
			trace.StateUnsupported, st.batches,
			[]byte(fmt.Sprintf("scheme %s is not snapshottable", st.schemeName))))
		return
	}
	var buf bytes.Buffer
	if err := st.snapshotState(&buf); err != nil {
		// Snapshot writes to a buffer, so this is codec-side failure, not
		// I/O; the codec state itself was only read, never mutated.
		st.ss.srv.met.stateFails.Add(1)
		st.log(slog.LevelWarn, "state snapshot failed", "err", err)
		st.send(trace.FrameStateAck, trace.MarshalStateAck(
			trace.StateFailed, st.batches, []byte(err.Error())))
		return
	}
	st.ss.srv.met.stateSnapshots.Add(1)
	st.ss.srv.met.stateSnapshotBytes.Store(int64(buf.Len()))
	st.log(slog.LevelDebug, "state snapshot served", "bytes", buf.Len(), "batches", st.batches)
	st.ss.srv.events.Add(obs.Event{
		Type: obs.EventStateSnapshot, Session: st.ss.id, Scheme: st.schemeName, Batches: st.batches,
	})
	st.send(trace.FrameStateAck, trace.MarshalStateAck(trace.StateOK, st.batches, buf.Bytes()))
}

// handleStateRestore installs a transferred session state. On success the
// session continues the original's streams byte-identically: its batch
// sequence jumps to the snapshot's and the bus accounting baselines resync
// so the first post-restore batch reports only its own deltas. On failure
// the session falls back to the freshly-reset state recoverBatch
// guarantees — never a half-restored one — and says so in the ack, leaving
// the orchestrator its reset-flagged BatchError fallback.
func (st *stream) handleStateRestore(body []byte) error {
	seq, state, err := trace.ParseStateRestore(body)
	if err != nil {
		// A malformed admin frame is a framing bug, not a bad snapshot:
		// fail the session like any other protocol violation.
		return err
	}
	if st.stateful == nil {
		st.send(trace.FrameStateAck, trace.MarshalStateAck(
			trace.StateUnsupported, seq,
			[]byte(fmt.Sprintf("scheme %s is not snapshottable", st.schemeName))))
		return nil
	}
	if err := st.restoreState(state); err != nil {
		// Each component validates its envelope before applying anything,
		// but an earlier component may have landed before a later one
		// failed; recoverBatch resets the codec and resyncs the stat
		// baselines so the session is cleanly fresh, not half-restored.
		st.recoverBatch()
		st.ss.srv.met.stateFails.Add(1)
		st.log(slog.LevelWarn, "state restore failed", "seq", seq, "err", err)
		st.send(trace.FrameStateAck, trace.MarshalStateAck(
			trace.StateFailed, seq, []byte(err.Error())))
		return nil
	}
	st.batches = seq
	st.prevBase, st.prevEnc = st.baseBus.Stats(), st.encBus.Stats()
	st.ss.srv.met.stateRestores.Add(1)
	st.log(slog.LevelInfo, "state restored", "bytes", len(state), "batches", seq)
	st.ss.srv.events.Add(obs.Event{
		Type: obs.EventStateRestore, Session: st.ss.id, Scheme: st.schemeName, Batches: seq,
	})
	st.send(trace.FrameStateAck, trace.MarshalStateAck(trace.StateOK, seq, nil))
	return nil
}

// snapshotState serializes the session's complete stream state: codec,
// baseline bus, encoded bus, in that order.
func (st *stream) snapshotState(buf *bytes.Buffer) error {
	if err := st.stateful.Snapshot(buf); err != nil {
		return err
	}
	if err := st.baseBus.Snapshot(buf); err != nil {
		return err
	}
	return st.encBus.Snapshot(buf)
}

// restoreState applies a snapshotState blob. Trailing bytes are rejected:
// a blob that decodes clean but does not end where the state does was
// framed by a different layout and cannot be trusted.
func (st *stream) restoreState(state []byte) error {
	r := bytes.NewReader(state)
	if err := st.stateful.Restore(r); err != nil {
		return err
	}
	if err := st.baseBus.Restore(r); err != nil {
		return fmt.Errorf("baseline %w", err)
	}
	if err := st.encBus.Restore(r); err != nil {
		return fmt.Errorf("encoded %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("state blob has %d trailing bytes", r.Len())
	}
	return nil
}
