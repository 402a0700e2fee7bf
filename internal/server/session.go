package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/serve"
	"github.com/hpca18/bxt/internal/trace"
)

// outFrame is one queued server-to-client frame of type t. frame is the
// whole frame, built behind trace.BeginFrame's header room; writeOut seals
// the header and writes it in one call. For batch replies it also carries
// the batch's span, complete except for its frame_write stage: the write
// goroutine owns the reply write, so it times that stage, finalizes the
// span, and records it to the trace ring. st is the stream the reply
// belongs to (its frame_write histogram).
type outFrame struct {
	t       trace.FrameType
	frame   []byte
	span    obs.Span
	st      *stream
	hasSpan bool
}

// newOutFrame frames body as a t frame for the queue.
func newOutFrame(t trace.FrameType, body []byte) outFrame {
	frame := append(trace.BeginFrame(make([]byte, 0, trace.FrameHeaderBytes+len(body))), body...)
	return outFrame{t: t, frame: frame}
}

// session is one client connection: a read goroutine parses frames,
// demultiplexes them onto the connection's streams, and encodes batches
// (bounded by the server's worker pool); a write goroutine owns the
// outbound half of the socket. Every stream is only ever touched by the
// read goroutine, so no per-stream locking exists.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn
	// in reads the Hello and every later frame under the idle deadline.
	in serve.Reader

	log *slog.Logger

	// streams holds the connection's open streams by id; st0 caches the
	// Hello-opened stream for session-level events. Both are owned by the
	// read goroutine.
	streams map[uint32]*stream
	st0     *stream

	// writeDLAt records when the write deadline was last armed, so the
	// reply path re-arms the kernel timer only after a quarter of the
	// timeout has elapsed. It is guarded by wmu.
	writeDLAt time.Time
	// wmu serializes writes to conn between the writer goroutine and the
	// reader's inline reply fast path; wbroken (guarded by wmu) latches the
	// first write failure so later frames are dropped instead of written to
	// a closed connection.
	wmu     sync.Mutex
	wbroken bool

	out chan outFrame
	// replyFree recycles BatchReply frame buffers between processBatch
	// (which builds them) and writeOut (which returns them once the
	// frame is on the wire), so the steady-state batch path allocates
	// nothing. Capacity exceeds every body that can be in flight at
	// once: cap(out) queued + one being written + one being built.
	replyFree chan []byte
	// writerDone closes when the write goroutine has flushed and exited.
	writerDone chan struct{}
}

// errSession wraps client-visible protocol failures.
var errSession = errors.New("server: session error")

// errCodecPanic marks a batch whose codec encode panicked; the panic was
// recovered, the batch quarantined, and the session codec reset.
var errCodecPanic = errors.New("server: codec panic")

// Serve drives the session to completion and closes the connection; by
// then the write goroutine, if it was started, has exited.
func (ss *session) Serve() {
	defer ss.conn.Close()

	if err := ss.handshake(); err != nil {
		ss.srv.log.Warn("handshake failed",
			"session", ss.id, "remote", ss.conn.RemoteAddr().String(), "err", err)
		ss.srv.events.Add(obs.Event{Type: obs.EventHandshakeFailed, Session: ss.id, Detail: err.Error()})
		// Handshake failures are written synchronously: the writer
		// goroutine does not exist yet.
		ss.writeOut(newOutFrame(trace.FrameError, []byte(err.Error())))
		return
	}
	opened := time.Now()

	ss.out = make(chan outFrame, 4)
	ss.replyFree = make(chan []byte, cap(ss.out)+2)
	ss.writerDone = make(chan struct{})
	go ss.writeLoop()
	ss.readLoop()
	close(ss.out)
	<-ss.writerDone

	// A drain closed this session out from under its client; leave the
	// codec state on disk so it can be recovered rather than lost. The
	// read and write goroutines are both done, so the streams' codecs and
	// buses are exclusively ours here.
	var batches uint64
	for _, st := range ss.streams {
		batches += st.batches
		if st.stateful != nil && ss.srv.cfg.StateDir != "" && ss.srv.host.Refusing() {
			st.persistState()
		}
	}
	ss.srv.met.streamsOpen.Add(-int64(len(ss.streams)))

	ss.log.Info("session closed",
		"batches", batches, "streams", len(ss.streams),
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
	if ss.st0 != nil {
		return ss.st0.schemeName
	}
	return ""
}

// handshake reads and answers the Hello frame. The Hello's scheme and
// transaction size implicitly open stream 0. A Hello the host's check
// refuses (wrong frame, bad body, another protocol revision) is answered
// by Serve with an Error frame and a close.
func (ss *session) handshake() error {
	h, err := ss.in.Hello()
	if err != nil {
		return fmt.Errorf("%w: %v", errSession, err)
	}
	st, err := ss.openStream(0, h.Scheme, h.TxnSize)
	if err != nil {
		return err
	}
	ss.streams = map[uint32]*stream{0: st}
	ss.st0 = st
	ss.srv.met.streamsOpen.Add(1)
	ss.srv.met.streamsTotal.Add(1)

	ss.log = ss.srv.log.With("session", ss.id)
	st.log.Info("session open", "remote", ss.conn.RemoteAddr().String(), "txn_size", h.TxnSize)
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
	if err := ss.writeOut(newOutFrame(trace.FrameHelloOK, okBody)); err != nil {
		return fmt.Errorf("%w: writing hello-ok: %v", errSession, err)
	}
	return nil
}

// readLoop consumes frames until the client closes, a protocol error
// occurs, or the server starts draining (which fires the read deadline).
func (ss *session) readLoop() {
	for {
		ft, body, readStart, err := ss.in.Next()
		if err != nil {
			if err != serve.ErrEnd {
				ss.fail(err.Error())
			}
			return
		}
		// Every post-handshake frame carries a stream-id prefix; resolve
		// it to the target stream before dispatch. The stream lifecycle
		// frames route themselves.
		switch ft {
		case trace.FrameStreamOpen:
			if ss.handleStreamOpen(body) {
				return
			}
			continue
		case trace.FrameStreamClose:
			sid, err := trace.ParseStreamClose(body)
			if err != nil {
				ss.fail(err.Error())
				return
			}
			if _, open := ss.streams[sid]; !open {
				ss.fail(fmt.Sprintf("close of unknown stream %d", sid))
				return
			}
			ss.closeStream(sid, "")
			continue
		}
		sid, body, err := trace.SplitStreamID(body)
		if err != nil {
			ss.fail(err.Error())
			return
		}
		st := ss.streams[sid]
		if st == nil {
			// A batch can legitimately race a server-side stream kill
			// (fault budget); re-announcing the closure lets the client
			// fail that stream without losing its siblings.
			ss.out <- newOutFrame(trace.FrameStreamClosed, trace.MarshalStreamClosed(sid, "unknown stream"))
			continue
		}
		switch ft {
		case trace.FrameBatch:
			// The frame_read stage includes the wait for the client's
			// next batch, so it reflects arrival gaps, not just parsing.
			// handleBatch observes it so the sample can carry the
			// batch's trace id once the envelope is open.
			st.handleBatch(body, time.Since(readStart))
		case trace.FrameStateSnapshot:
			st.handleStateSnapshot()
		case trace.FrameStateRestore:
			if st.handleStateRestore(body) {
				return
			}
		default:
			ss.fail(fmt.Sprintf("unexpected frame type %#x", ft))
			return
		}
	}
}

// handleStreamOpen answers one StreamOpen frame. Refusals (duplicate id,
// stream limit, unknown scheme) are stream-scoped: the session and its
// other streams keep serving. A malformed body is a protocol violation
// and stays fatal.
func (ss *session) handleStreamOpen(body []byte) (fatal bool) {
	o, err := trace.ParseStreamOpen(body)
	if err != nil {
		ss.fail(err.Error())
		return true
	}
	refuse := func(msg string) {
		ss.srv.met.streamRefused.Add(1)
		ss.log.Warn("stream open refused", "stream", o.ID, "scheme", o.Scheme, "reason", msg)
		ss.out <- newOutFrame(trace.FrameStreamOpenOK, trace.MarshalStreamOpenOK(trace.StreamOpenOK{
			ID: o.ID, Status: trace.StreamRefused, Msg: msg,
		}))
	}
	if _, dup := ss.streams[o.ID]; dup {
		refuse(fmt.Sprintf("stream %d is already open", o.ID))
		return false
	}
	if len(ss.streams) >= ss.srv.cfg.StreamLimit {
		refuse(fmt.Sprintf("session at stream capacity (%d)", ss.srv.cfg.StreamLimit))
		return false
	}
	st, err := ss.openStream(o.ID, o.Scheme, o.TxnSize)
	if err != nil {
		refuse(err.Error())
		return false
	}
	ss.streams[o.ID] = st
	ss.srv.met.streamsOpen.Add(1)
	ss.srv.met.streamsTotal.Add(1)
	st.log.Debug("stream open", "txn_size", o.TxnSize)
	ss.srv.events.Add(obs.Event{Type: obs.EventStreamOpen, Session: ss.id, Scheme: st.schemeName, Detail: fmt.Sprintf("stream %d", o.ID)})
	ss.out <- newOutFrame(trace.FrameStreamOpenOK, trace.MarshalStreamOpenOK(trace.StreamOpenOK{
		ID: o.ID, Status: trace.StreamOK, MetaBits: st.metaBits, BatchLimit: ss.srv.cfg.BatchLimit,
	}))
	return false
}

// closeStream retires one stream and tells the client, with msg naming the
// cause when the server initiated the close (empty on a client-requested
// one). The connection and its remaining streams keep serving.
func (ss *session) closeStream(sid uint32, msg string) {
	st := ss.streams[sid]
	delete(ss.streams, sid)
	if st == ss.st0 {
		ss.st0 = nil
	}
	ss.srv.met.streamsOpen.Add(-1)
	if st != nil {
		st.log.Debug("stream closed", "batches", st.batches, "cause", msg)
		ss.srv.events.Add(obs.Event{Type: obs.EventStreamClose, Session: ss.id, Scheme: st.schemeName, Batches: st.batches, Detail: msg})
	}
	ss.out <- newOutFrame(trace.FrameStreamClosed, trace.MarshalStreamClosed(sid, msg))
}

// fail queues an error frame for the client; the writer flushes it before
// the connection closes.
func (ss *session) fail(msg string) {
	ss.out <- newOutFrame(trace.FrameError, []byte(msg))
}

// writeLoop drains the outbound frame queue. In steady state the reader
// goroutine writes batch replies inline (see handleBatch) and this loop
// only carries the rare out-of-band frames — errors, Busy, and anything
// enqueued while the writer was momentarily busy; writeOut's mutex keeps
// the two producers' bytes from interleaving. A write failure (including a
// slow client exhausting the deadline) closes the connection, which in
// turn unblocks the read side.
func (ss *session) writeLoop() {
	defer close(ss.writerDone)
	for f := range ss.out {
		ss.writeOut(f)
	}
}

// writeOut seals f's header and writes the frame to the connection in one
// Write, under the writer mutex. Once a write fails the connection is
// closed and every later frame is dropped, so the reader never blocks on a
// dead peer.
func (ss *session) writeOut(f outFrame) error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	if ss.wbroken {
		return net.ErrClosed
	}
	// Same single-clock-read, re-arm-when-stale pattern as the read
	// side: a stuck client still trips the deadline within
	// [3/4·WriteTimeout, WriteTimeout].
	writeStart := time.Now()
	if writeStart.Sub(ss.writeDLAt) > ss.srv.cfg.WriteTimeout>>2 {
		ss.conn.SetWriteDeadline(writeStart.Add(ss.srv.cfg.WriteTimeout))
		ss.writeDLAt = writeStart
	}
	err := trace.SealFrame(f.frame, f.t)
	if err == nil {
		_, err = ss.conn.Write(f.frame)
	}
	if err != nil {
		ss.wbroken = true
		ss.noteWriteFailure(f, err)
		ss.conn.Close()
		return err
	}
	// Only batch replies feed the frame_write histogram, so its count
	// matches codec_encode's: batches observed == batches replied.
	if f.t == trace.FrameBatchReply && f.st != nil {
		writeDur := time.Since(writeStart)
		f.st.writeH.ObserveDurationEx(writeDur, f.span.TraceID)
		if f.hasSpan {
			f.span.Observe(obs.StageFrameWrite, writeDur)
			ss.srv.met.traces.Add(&f.span)
		}
		// The frame is on the wire; hand its buffer back for reuse.
		// Dropping it when the free list is full is fine — that buffer is
		// simply re-allocated later.
		select {
		case ss.replyFree <- f.frame:
		default:
		}
	}
	return nil
}

// awaitWrite returns once no frame write is in progress on ss: taking the
// write lock is the barrier.
func (ss *session) awaitWrite() {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
}

// noteWriteFailure classifies a reply-write failure: a deadline expiry
// means the peer stopped reading (a slow or stuck client), which is worth
// a dedicated counter and lifecycle event; other errors are the ordinary
// death of an already-gone connection.
func (ss *session) noteWriteFailure(f outFrame, err error) {
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		return
	}
	ss.srv.met.slowClients.Add(1)
	scheme := ss.st0Scheme()
	if f.st != nil {
		scheme = f.st.schemeName
	}
	ss.srv.log.Warn("slow client: reply write deadline expired", "session", ss.id, "err", err)
	ss.srv.events.Add(obs.Event{Type: obs.EventSlowClient, Session: ss.id, Scheme: scheme, Detail: err.Error()})
}
