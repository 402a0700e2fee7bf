package serve

import (
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/trace"
)

// The stream table's refusal texts, the same on both tiers.
const (
	refuseDuplicate  = "stream %d is already open"
	refuseLimit      = "stream limit %d reached"
	failCloseUnknown = "close of unknown stream %d"
	closedUnknown    = "unknown stream"
)

// streamCounts backs the host's streams_open, streams_total and
// stream_refused_total families.
type streamCounts struct {
	open    atomic.Int64
	total   atomic.Uint64
	refused atomic.Uint64
}

// Streams is one session's stream table: its open streams by id, each the
// tier's state for one (scheme, transaction size) context. The session
// goroutine owns it; it is not safe for concurrent use.
type Streams[T any] struct {
	m      map[uint32]T
	limit  int
	counts *streamCounts
	w      *Writer
	log    *slog.Logger
	open   func(trace.StreamOpen) (T, []byte, error)
	close  func(T)
}

// NewStreams returns the stream table of a session on h, which answers
// through w and logs refusals to log. The tier supplies how a stream opens
// and closes:
//
//   - open builds the stream a StreamOpen asks for and returns it with its
//     StreamOpenOK body. An error refuses the open with the error's text,
//     or with the returned body verbatim when there is one.
//   - close runs when the client closes a stream, before the StreamClosed
//     acknowledgement.
func NewStreams[T any, S Session](h *Host[S], w *Writer, log *slog.Logger,
	open func(trace.StreamOpen) (T, []byte, error), close func(T)) *Streams[T] {
	return &Streams[T]{
		m:      make(map[uint32]T),
		limit:  h.tier.StreamLimit,
		counts: &h.streams,
		w:      w,
		log:    log,
		open:   open,
		close:  close,
	}
}

// Add registers st as stream sid without answering: the stream the Hello
// opens.
func (s *Streams[T]) Add(sid uint32, st T) {
	s.m[sid] = st
	s.counts.open.Add(1)
	s.counts.total.Add(1)
}

// Get returns stream sid, and whether it is open.
func (s *Streams[T]) Get(sid uint32) (T, bool) {
	st, ok := s.m[sid]
	return st, ok
}

// Len returns the number of open streams.
func (s *Streams[T]) Len() int { return len(s.m) }

// Each calls f for every open stream.
func (s *Streams[T]) Each(f func(T)) {
	for _, st := range s.m {
		f(st)
	}
}

// Serve reads the session's frames from r until the session ends:
// StreamOpen and StreamClose frames go to the table, every other frame to
// dispatch with the time its read began. The client closing, a drain or a
// broken socket ends the session silently; an error from r, the table or
// dispatch ends it with an Error frame carrying the error's text.
//
// While r holds another whole frame, the answers are held in the Writer's
// block; Serve writes the block out in one Write before a read that would
// block, and when the session ends.
func (s *Streams[T]) Serve(r *Reader, dispatch func(ft trace.FrameType, body []byte, readStart time.Time) error) {
	defer func() {
		s.w.hold = false
		s.w.Flush()
	}()
	for {
		if !r.in.Ready() && s.w.Flush() != nil {
			return
		}
		ft, body, readStart, err := r.Next()
		s.w.hold = r.in.Ready()
		switch {
		case err != nil:
		case ft == trace.FrameStreamOpen:
			err = s.openFrame(body)
		case ft == trace.FrameStreamClose:
			err = s.closeFrame(body)
		default:
			err = dispatch(ft, body, readStart)
		}
		if err != nil {
			s.w.Refuse(err)
			return
		}
	}
}

// Route splits a frame body's stream-id prefix and returns the open stream
// it names with the rest of the body. A body for a stream that is not open
// is answered StreamClosed "unknown stream" and ok is false: a frame can
// legitimately race a server-side stream kill, and re-announcing the
// closure lets the client fail that stream without losing its siblings.
// An error (a body too short for the prefix, or a failed answer) ends the
// session.
func (s *Streams[T]) Route(body []byte) (st T, rest []byte, ok bool, err error) {
	sid, rest, err := trace.SplitStreamID(body)
	if err != nil {
		return st, nil, false, err
	}
	if st, ok = s.m[sid]; !ok {
		return st, nil, false, s.w.Send(trace.FrameStreamClosed, trace.MarshalStreamClosed(sid, closedUnknown))
	}
	return st, rest, true, nil
}

// openFrame answers one StreamOpen frame. Refusals (a duplicate id, the
// stream limit, or the tier's own) are stream-scoped: the session and its
// other streams keep serving. An error (a malformed body, or a failed
// answer) ends the session.
func (s *Streams[T]) openFrame(body []byte) error {
	o, err := trace.ParseStreamOpen(body)
	if err != nil {
		return err
	}
	if _, dup := s.m[o.ID]; dup {
		return s.refuse(o, fmt.Sprintf(refuseDuplicate, o.ID), nil)
	}
	if len(s.m) >= s.limit {
		return s.refuse(o, fmt.Sprintf(refuseLimit, s.limit), nil)
	}
	st, ok, err := s.open(o)
	if err != nil {
		return s.refuse(o, err.Error(), ok)
	}
	s.Add(o.ID, st)
	return s.w.Send(trace.FrameStreamOpenOK, ok)
}

// refuse answers o with verdict, or with a refusal carrying msg when
// verdict is nil.
func (s *Streams[T]) refuse(o trace.StreamOpen, msg string, verdict []byte) error {
	s.counts.refused.Add(1)
	s.log.Warn("stream open refused", "stream", o.ID, "scheme", o.Scheme, "reason", msg)
	if verdict == nil {
		verdict = trace.MarshalStreamOpenOK(trace.StreamOpenOK{ID: o.ID, Status: trace.StreamRefused, Msg: msg})
	}
	return s.w.Send(trace.FrameStreamOpenOK, verdict)
}

// closeFrame answers one StreamClose frame: the tier closes the stream,
// which leaves the table, and StreamClosed acknowledges it. Closing a
// stream that is not open is a protocol violation; the error ends the
// session.
func (s *Streams[T]) closeFrame(body []byte) error {
	sid, err := trace.ParseStreamClose(body)
	if err != nil {
		return err
	}
	st, ok := s.m[sid]
	if !ok {
		return fmt.Errorf(failCloseUnknown, sid)
	}
	s.close(st)
	return s.Remove(sid, "")
}

// Remove takes stream sid out of the table and tells the client so with a
// StreamClosed frame carrying cause: why the tier closed the stream, or
// empty when the client asked. The session and its other streams keep
// serving.
func (s *Streams[T]) Remove(sid uint32, cause string) error {
	if _, ok := s.m[sid]; ok {
		delete(s.m, sid)
		s.counts.open.Add(-1)
	}
	return s.w.Send(trace.FrameStreamClosed, trace.MarshalStreamClosed(sid, cause))
}

// Teardown empties the table when the session ends. A tier defers it
// first thing in Serve, so the streams leave streams_open on every exit
// path, a failed handshake included.
func (s *Streams[T]) Teardown() {
	s.counts.open.Add(-int64(len(s.m)))
	clear(s.m)
}
