package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/serve"
	"github.com/hpca18/bxt/internal/trace"
)

// session is one client connection. Its one goroutine parses frames,
// demultiplexes them onto the connection's streams, encodes batches
// (bounded by the server's worker pool) and writes every reply, so no
// per-stream locking exists.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn
	// in reads the Hello and every later frame under the idle deadline;
	// w writes every frame under the write deadline.
	in serve.Reader
	w  *serve.Writer

	log *slog.Logger

	// streams holds the connection's open streams by id.
	streams *serve.Streams[*stream]

	// batchEnc is the batch scratch, which every stream shares: the
	// session encodes one batch at a time. It holds one block's records,
	// which point at their windows of the reply frame; serveBatch
	// reserves the frame, exactly sized, at the end of the Writer's block,
	// so the reply is built in place and written without a copy, and the
	// steady-state batch path allocates nothing.
	batchEnc []core.Encoded
}

// errSession wraps client-visible protocol failures.
var errSession = errors.New("server: session error")

// errCodecPanic marks a batch whose codec encode panicked; the panic was
// recovered, the batch quarantined, and the session codec reset.
var errCodecPanic = errors.New("server: codec panic")

// Writer returns the session's frame writer.
func (ss *session) Writer() *serve.Writer { return ss.w }

// Serve drives the session to completion and closes the connection.
func (ss *session) Serve() {
	defer ss.conn.Close()
	defer ss.streams.Teardown()

	if err := ss.handshake(); err != nil {
		ss.srv.log.Warn("handshake failed",
			"session", ss.id, "remote", ss.conn.RemoteAddr().String(), "err", err)
		ss.srv.events.Add(obs.Event{Type: obs.EventHandshakeFailed, Session: ss.id, Detail: err.Error()})
		ss.w.Refuse(err)
		return
	}
	opened := time.Now()
	// Frames are served until the client closes, a protocol error occurs,
	// or the server starts draining (which fires the read deadline).
	ss.streams.Serve(&ss.in, ss.dispatch)
	ss.noteWriteFailure()

	var batches uint64
	ss.streams.Each(func(st *stream) { batches += st.batches })

	ss.log.Info("session closed",
		"batches", batches, "streams", ss.streams.Len(),
		"age", time.Since(opened).Round(time.Millisecond).String())
	ss.srv.events.Add(obs.Event{
		Type:       obs.EventSessionClose,
		Session:    ss.id,
		Scheme:     ss.st0Scheme(),
		Batches:    batches,
		DurationMS: float64(time.Since(opened)) / float64(time.Millisecond),
	})
}

// st0Scheme names the Hello-opened stream's scheme for session-level
// events, tolerating a client that closed stream 0 mid-session.
func (ss *session) st0Scheme() string {
	if st, ok := ss.streams.Get(0); ok {
		return st.schemeName
	}
	return ""
}

// handshake reads and answers the Hello frame. The Hello's scheme and
// transaction size implicitly open stream 0. A Hello the host's check
// refuses (wrong frame, bad body, another protocol revision) is answered
// by Serve with an Error frame and a close; one that may be damaged ends
// the session without one.
func (ss *session) handshake() error {
	h, err := ss.in.Hello()
	if err != nil {
		return fmt.Errorf("%w: %w", errSession, err)
	}
	st, err := ss.openStream(0, h.Scheme, h.TxnSize)
	if err != nil {
		return err
	}
	ss.streams.Add(0, st)

	st.log(slog.LevelInfo, "session open", "remote", ss.conn.RemoteAddr().String(), "txn_size", h.TxnSize)
	ss.srv.events.Add(obs.Event{
		Type:    obs.EventSessionOpen,
		Session: ss.id,
		Scheme:  st.schemeName,
		Detail:  ss.conn.RemoteAddr().String(),
	})

	okBody := trace.MarshalHelloOK(trace.HelloOK{
		Version:    trace.ProtocolVersion,
		MetaBits:   st.metaBits,
		BatchLimit: ss.srv.cfg.BatchLimit,
	})
	if err := ss.w.Send(trace.FrameHelloOK, okBody); err != nil {
		return fmt.Errorf("%w: writing hello-ok: %v", errSession, err)
	}
	return nil
}

// dispatch serves one frame on the stream its body's id prefix names.
func (ss *session) dispatch(ft trace.FrameType, body []byte, readStart time.Time) error {
	st, body, ok, err := ss.streams.Route(body)
	if !ok {
		return err
	}
	switch ft {
	case trace.FrameBatch:
		// The frame_read stage includes the wait for the client's next
		// batch, so it reflects arrival gaps, not just parsing.
		// handleBatch writes it into the batch's span, whose trace id
		// the envelope supplies.
		st.handleBatch(body, time.Since(readStart))
	case trace.FrameStateSnapshot:
		st.handleStateSnapshot()
	case trace.FrameStateRestore:
		return st.handleStateRestore(body)
	default:
		return fmt.Errorf("unexpected frame type %#x", ft)
	}
	return nil
}

// addStream opens the stream a StreamOpen frame asks for and returns it
// with its StreamOpenOK body.
func (ss *session) addStream(o trace.StreamOpen) (*stream, []byte, error) {
	st, err := ss.openStream(o.ID, o.Scheme, o.TxnSize)
	if err != nil {
		return nil, nil, err
	}
	st.log(slog.LevelDebug, "stream open", "txn_size", o.TxnSize)
	ss.srv.events.Add(obs.Event{Type: obs.EventStreamOpen, Session: ss.id, Scheme: st.schemeName, Detail: fmt.Sprintf("stream %d", o.ID)})
	return st, trace.MarshalStreamOpenOK(trace.StreamOpenOK{
		ID: o.ID, Status: trace.StreamOK, MetaBits: st.metaBits, BatchLimit: ss.srv.cfg.BatchLimit,
	}), nil
}

// closeStream records the close of st, with cause naming why when the
// server closed it (empty on a client-requested close).
func (ss *session) closeStream(st *stream, cause string) {
	st.log(slog.LevelDebug, "stream closed", "batches", st.batches, "cause", cause)
	ss.srv.events.Add(obs.Event{Type: obs.EventStreamClose, Session: ss.id, Scheme: st.schemeName, Batches: st.batches, Detail: cause})
}

// noteWriteFailure classifies the write failure, if any, that ended the
// session: a deadline expiry means the peer stopped reading (a slow or
// stuck client), which is worth a dedicated counter and lifecycle event;
// other errors are the ordinary death of an already-gone connection.
func (ss *session) noteWriteFailure() {
	var nerr net.Error
	err := ss.w.Err()
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		return
	}
	ss.srv.met.slowClients.Add(1)
	ss.srv.log.Warn("slow client: reply write deadline expired", "session", ss.id, "err", err)
	ss.srv.events.Add(obs.Event{Type: obs.EventSlowClient, Session: ss.id, Scheme: ss.st0Scheme(), Detail: err.Error()})
}
