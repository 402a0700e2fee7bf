package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// ErrMuxClosed is returned by operations on a closed Mux or Session.
var ErrMuxClosed = errors.New("client: mux closed")

// ErrStreamKilled wraps a StreamClosed the server sent unprompted: the
// gateway killed this one stream (fault budget exhausted) while the
// connection and its sibling streams kept serving. With retries enabled
// the session transparently re-opens its stream — on a fresh server-side
// codec, so Epoch advances — and re-drives the batch.
var ErrStreamKilled = errors.New("client: stream killed by server")

// Mux multiplexes many logical sessions onto one TCP connection using
// BXTP stream framing. Open vends one Session per logical
// stream; each has its own scheme, transaction size, batch-id space,
// epoch, and retry accounting, and each must be used from a single
// goroutine — but different Sessions of one Mux are safe to drive
// concurrently, their frames interleaving on the shared connection.
//
// No goroutine reads the connection on the Mux's behalf: a session
// awaiting an answer takes the read role when no sibling holds it, and
// gives it back once it has its own frame (Session.recv).
//
// The connection is dialed lazily on the first Open (whose scheme and
// transaction size become the Hello parameters, implicitly opening stream
// 0) and re-dialed transparently when it breaks: every Session's epoch
// advances once for it (the server-side codecs are gone) and each stream
// re-opens on the replacement connection on its next use.
type Mux struct {
	addr string
	cfg  Config

	// mu guards the fields below, every session's generation, inbox and
	// lent reader, and each generation's in and inLent.
	mu       sync.Mutex
	conn     *muxConn
	sessions map[uint32]*Session
	nextSID  uint32
	closed   bool
	// helloScheme/helloTxn are the first Open's parameters, replayed as
	// the Hello of every redial (the Hello implicitly opens stream 0).
	helloScheme string
	helloTxn    int
	// spares are frame readers free for a new reader to continue on, at
	// most one per open session (keep).
	spares []*trace.FrameReader

	reconnects atomic.Uint64
}

// muxConn is one generation of the shared connection. Writes from any
// session serialize on wmu. The read role is a token in role: its holder
// alone reads, with in, and puts the token back when it has its own
// frame. dead is closed (once) when the connection fails, waking every
// waiting session.
type muxConn struct {
	conn net.Conn
	// hello is the generation's checked HelloOK: stream 0's negotiated
	// geometry.
	hello trace.Answer

	wmu sync.Mutex
	// writeDL and readDL are the deadlines last armed. A call re-arms one
	// only when it falls more than a quarter of the call's timeout short
	// of the call's own limit, or lies beyond it: the effective limit stays
	// within [3/4·timeout, timeout] without a timer update per frame, and
	// calls with different timeouts each get their own.
	writeDL time.Time
	readDL  time.Time

	role chan struct{}
	// in is the reader the role holder reads with. inLent marks its
	// buffer as holding a frame a session read in place and may still be
	// using; the next holder then moves to a spare, carrying over the
	// bytes of a frame still arriving, which Read serves before the
	// socket.
	in     *trace.FrameReader
	inLent bool
	carry  []byte

	dead     chan struct{}
	deadErr  error
	deadOnce sync.Once
}

// Read feeds the role holder's reader: the carried bytes first, then the
// socket.
func (mc *muxConn) Read(p []byte) (int, error) {
	if len(mc.carry) > 0 {
		n := copy(p, mc.carry)
		mc.carry = mc.carry[n:]
		return n, nil
	}
	return mc.conn.Read(p)
}

func (mc *muxConn) isDead() bool {
	select {
	case <-mc.dead:
		return true
	default:
		return false
	}
}

// rearm reports whether a deadline armed at dl must move for a call
// starting now that may take timeout, and the deadline to move it to.
func rearm(dl, now time.Time, timeout time.Duration) (time.Time, bool) {
	want := now.Add(timeout)
	return want, want.Sub(dl) > timeout>>2 || dl.After(want)
}

// write sends one whole frame, header included, on the shared connection
// in one Write, serializing with every other session's writes.
func (mc *muxConn) write(frame []byte, timeout time.Duration) error {
	mc.wmu.Lock()
	defer mc.wmu.Unlock()
	if dl, ok := rearm(mc.writeDL, time.Now(), timeout); ok {
		mc.conn.SetWriteDeadline(dl)
		mc.writeDL = dl
	}
	_, err := mc.conn.Write(frame)
	return err
}

// NewMux prepares a multiplexed client for addr. No connection is opened
// until the first Open.
func NewMux(addr string, cfg Config) (*Mux, error) { return newMux(addr, cfg), nil }

func newMux(addr string, cfg Config) *Mux {
	return &Mux{addr: addr, cfg: cfg.withDefaults(), sessions: make(map[uint32]*Session)}
}

// Reconnects returns how many times the shared connection was re-dialed
// after breaking. Zero means no session ever observed a disconnect.
func (m *Mux) Reconnects() uint64 { return m.reconnects.Load() }

// Sessions returns the number of streams currently open.
func (m *Mux) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Open vends a new logical session running the named scheme over
// txnSize-byte transactions. The first Open dials the shared connection
// (its parameters become the Hello, which implicitly opens stream 0);
// later Opens add a stream with a StreamOpen exchange.
func (m *Mux) Open(scheme string, txnSize int) (*Session, error) {
	return m.open(context.Background(), scheme, txnSize)
}

// open is Open with a context bounding the dial, when it dials.
func (m *Mux) open(ctx context.Context, scheme string, txnSize int) (*Session, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrMuxClosed
	}
	first := m.helloScheme == ""
	if first {
		m.helloScheme, m.helloTxn = scheme, txnSize
	}
	if m.conn == nil || m.conn.isDead() {
		if err := m.redialLocked(ctx); err != nil {
			if first {
				// Let the next Open retry with its own hello parameters.
				m.helloScheme, m.helloTxn = "", 0
			}
			m.mu.Unlock()
			return nil, err
		}
	}
	s := &Session{m: m, cfg: &m.cfg, sid: m.nextSID, scheme: scheme, txnSize: txnSize, wake: make(chan struct{}, 1)}
	m.nextSID++
	m.sessions[s.sid] = s
	m.mu.Unlock()
	// ensure takes stream 0's geometry from the Hello and opens any other.
	_, err := m.ensure(s)
	s.inCall.Store(false)
	if err != nil {
		m.mu.Lock()
		delete(m.sessions, s.sid)
		m.mu.Unlock()
		return nil, err
	}
	return s, nil
}

// redialLocked dials and handshakes a fresh connection generation. Called
// with m.mu held; DialTimeout bounds the dial and the handshake together,
// since every sibling's Open, Close and frame delivery waits on the lock.
func (m *Mux) redialLocked(ctx context.Context) error {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, m.cfg.DialTimeout)
	defer cancel()
	in := m.spare()
	conn, ok, err := connect(ctx, &m.cfg, m.addr, m.helloScheme, m.helloTxn, in)
	if err != nil {
		m.keep(in)
		return err
	}
	if m.conn != nil {
		m.reconnects.Add(1)
		m.cfg.Tracer.ObserveStage(m.helloScheme, obs.StageReconnect, time.Since(start))
	}
	m.conn = &muxConn{conn: conn, hello: ok, in: in, role: make(chan struct{}, 1), dead: make(chan struct{})}
	m.conn.role <- struct{}{}
	return nil
}

// spare returns a frame reader for a new reader to continue on. Called
// with m.mu held.
func (m *Mux) spare() *trace.FrameReader {
	n := len(m.spares)
	if n == 0 {
		return new(trace.FrameReader)
	}
	fr := m.spares[n-1]
	m.spares = m.spares[:n-1]
	return fr
}

// keep returns fr to the spares unless they hold one per open session:
// more are never needed at once, since a session holds at most one lent
// reader. Called with m.mu held.
func (m *Mux) keep(fr *trace.FrameReader) {
	if len(m.spares) < len(m.sessions) {
		m.spares = append(m.spares, fr)
	}
}

// fail marks generation mc dead with err, the first failure only: the
// socket closes, every waiting session wakes, and every session on mc
// between calls counts the failure in its epoch, since the server-side
// codecs died with the connection. A session inside a call may hold an
// answer encoded before the failure, so it counts the failure itself
// (Transcode, ensure).
func (m *Mux) fail(mc *muxConn, err error) {
	mc.deadOnce.Do(func() {
		mc.deadErr = err
		close(mc.dead)
		mc.conn.Close()
		m.mu.Lock()
		for _, s := range m.sessions {
			if !s.inCall.Load() {
				s.leaveLocked(mc)
			}
		}
		m.mu.Unlock()
	})
}

// leaveLocked counts the failure of generation mc, when s is on it, in
// s's epoch. Called with m.mu held.
func (s *Session) leaveLocked(mc *muxConn) {
	if mc != nil && s.gen == mc {
		s.gen = nil
		s.epoch.Add(1)
	}
}

// ensure returns a live connection generation for s to exchange on,
// redialing the shared connection and re-opening this stream as needed,
// and marks s as inside a call. A redial counts against s, whose attempt
// drove it.
func (m *Mux) ensure(s *Session) (*muxConn, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrMuxClosed
	}
	s.inCall.Store(true)
	if m.conn == nil || m.conn.isDead() {
		if err := m.redialLocked(context.Background()); err != nil {
			m.mu.Unlock()
			return nil, err
		}
		s.stats.Reconnects++
	}
	mc := m.conn
	if s.gen != mc {
		s.leaveLocked(s.gen) // it failed while s was in a call
		s.gen = mc
		// The redial Hello re-opened stream 0; every other stream must
		// re-open explicitly.
		s.needsReopen = s.sid != 0
		if s.sid == 0 {
			s.setGeometry(mc.hello.MetaBits, mc.hello.BatchLimit)
		}
	}
	m.mu.Unlock()
	if s.needsReopen {
		if err := s.openOnConn(mc); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

// deliver copies a frame, whole, read for stream sid into its session's
// inbox and wakes the session. A frame for no open stream (one closed
// concurrently), for an occupied inbox (an unsolicited duplicate), for a
// stream being re-opened when it is a StreamClosed (the server answering a
// batch sent after it killed the stream), or read off a generation that
// has failed is stale, and dropped.
func (m *Mux) deliver(mc *muxConn, sid uint32, frame []byte) {
	m.mu.Lock()
	s := m.sessions[sid]
	ok := s != nil && !s.full && !s.held && !s.stale(frame) && !mc.isDead()
	if ok {
		if testHookCopy != nil {
			testHookCopy(mc.conn, len(frame))
		}
		s.buf = append(s.buf[:0], frame...)
		s.full = true
	}
	m.mu.Unlock()
	if ok {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// testHookCopy, when non-nil, is told of every frame deliver copies into a
// session's inbox, with the connection it was read from. It is a test seam
// for the copy ledger, set only while no Mux is in use.
var testHookCopy func(conn net.Conn, n int)

// stale reports whether frame, read for s, answers nothing s asked.
func (s *Session) stale(frame []byte) bool {
	return s.opening && trace.FrameType(frame[4]) == trace.FrameStreamClosed
}

// reclaim readies s for a new request, a StreamOpen when opening: a frame
// left in its inbox from a timed-out attempt, a previous generation or a
// killed stream is dropped, and what its last answer lies in is handed
// back — the inbox, or the reader s read it with, which goes back to the
// spares unless it is still the connection's reader.
func (s *Session) reclaim(opening bool) {
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	s.full, s.held, s.opening = false, false, opening
	if fr := s.lent; fr != nil {
		s.lent = nil
		if mc := m.conn; mc != nil && mc.in == fr {
			mc.inLent = false
		} else {
			m.keep(fr)
		}
	}
}

// Release hands back what s's last answer lies in — the inbox, or the
// read buffer s read it from in place — which s's next request would
// otherwise hand back: the answer, its Records included, must not be used
// afterwards. A caller done with each answer at once keeps a connection on
// one read buffer however many sessions share it.
func (s *Session) Release() { s.reclaim(false) }

// take returns the frame a sibling delivered to s, if one is waiting.
// Called with m.mu held.
func (s *Session) take() ([]byte, bool) {
	if !s.full {
		return nil, false
	}
	s.full, s.held = false, true
	return s.buf, true
}

// request is the one request/answer step of every session: it sends frame
// — one whole request on s's stream, header included — on mc in one Write,
// and returns the answer read for the stream, whole and valid until s's
// next request or Release, and when the write ended. A StreamOpen's answer is never a StreamClosed: one arriving
// meanwhile answers a batch sent before the server killed the stream, and
// is skipped. A StreamClosed answer means the server holds no such stream
// any more, so the session re-opens it before its next batch. timeout
// bounds the write and the wait. request neither retries nor redials: a
// failed write or read fails mc.
func (s *Session) request(mc *muxConn, frame []byte, timeout time.Duration) ([]byte, time.Time, error) {
	s.reclaim(trace.FrameType(frame[4]) == trace.FrameStreamOpen)
	if err := mc.write(frame, timeout); err != nil {
		s.m.fail(mc, err)
		return nil, time.Time{}, fmt.Errorf("client: sending on stream %d: %w", s.sid, err)
	}
	sent := time.Now()
	answer, err := s.recv(mc, timeout)
	if err != nil {
		return nil, sent, fmt.Errorf("client: awaiting an answer on stream %d: %w", s.sid, err)
	}
	if trace.FrameType(answer[4]) == trace.FrameStreamClosed {
		s.needsReopen = true
	}
	return answer, sent, nil
}

// Exchange sends frame — one whole BXTP request on s's stream, header
// included — and returns the answer the server sent on the stream: its
// type, its body (stream id included) and the whole frame, for a peer that
// relays it verbatim. The answer is valid until s's next request or
// Release; timeout bounds the write and the wait for it.
//
// Exchange is the step Transcode and every stream open are built on, with
// nothing around it: no retry, no redial, and no reading of the answer
// past its stream id. A failed write or read, a timeout, or an Error
// frame from the server — the error then wraps ErrServer and carries the
// server's text — fails the connection, for every session on it.
func (s *Session) Exchange(frame []byte, timeout time.Duration) (trace.FrameType, []byte, []byte, error) {
	s.m.mu.Lock()
	mc, err := s.m.liveLocked()
	s.m.mu.Unlock()
	if err == nil && s.closed {
		err = ErrMuxClosed
	}
	if err != nil {
		return 0, nil, nil, err
	}
	answer, _, err := s.request(mc, frame, timeout)
	if err != nil {
		return 0, nil, nil, err
	}
	return trace.FrameType(answer[4]), answer[trace.FrameHeaderBytes:], answer, nil
}

// errNotDialed fails a call that needs the connection before any Open.
var errNotDialed = errors.New("client: mux not dialed")

// liveLocked returns the mux's connection when it is up, without dialing.
// Called with m.mu held.
func (m *Mux) liveLocked() (*muxConn, error) {
	switch {
	case m.closed:
		return nil, ErrMuxClosed
	case m.conn == nil:
		return nil, errNotDialed
	case m.conn.isDead():
		return nil, m.conn.deadErr
	}
	return m.conn, nil
}

// Stream returns the session registered for stream sid, and whether one
// already was; when none was, it registers one, sending nothing. A
// session Stream registers is driven with Exchange alone: its caller sends
// the stream's StreamOpen, batches and StreamClose itself, and its Close
// only deregisters it. The connection must be up, dialed by a first Open;
// Stream never dials.
func (m *Mux) Stream(sid uint32) (*Session, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.liveLocked(); err != nil {
		return nil, false, err
	}
	if s := m.sessions[sid]; s != nil {
		return s, true, nil
	}
	s := &Session{m: m, cfg: &m.cfg, sid: sid, wake: make(chan struct{}, 1)}
	m.sessions[sid] = s
	return s, false, nil
}

// recv returns the next frame, whole, for s on mc: one a sibling read and
// delivered, or one s reads itself once it holds the read role. A follower
// waits at most timeout, which kills the generation: the server answers
// in order, so a missing answer means the connection is gone or
// desynchronized. The frame stays valid until s's next request.
func (s *Session) recv(mc *muxConn, timeout time.Duration) ([]byte, error) {
	start := time.Now()
	for armed := false; ; {
		select {
		case <-mc.role:
			return s.lead(mc, start, timeout)
		default:
		}
		s.m.mu.Lock()
		frame, ok := s.take()
		s.m.mu.Unlock()
		if ok {
			return frame, nil
		}
		if !armed {
			s.armTimer(timeout)
			armed = true
		}
		select {
		case <-mc.role:
			return s.lead(mc, start, timeout)
		case <-s.wake:
		case <-mc.dead:
			return nil, mc.deadErr
		case <-s.timer.C:
			s.m.fail(mc, fmt.Errorf("client: stream %d answer timed out after %v", s.sid, timeout))
			return nil, mc.deadErr
		}
	}
}

// armTimer arms s's follower timer for d.
func (s *Session) armTimer(d time.Duration) {
	if s.timer == nil {
		s.timer = time.NewTimer(d)
		return
	}
	// go.mod's language version keeps the pre-1.23 timer channel: a timer
	// that fired unobserved leaves a value behind, so stop and drain
	// before re-arming.
	if !s.timer.Stop() {
		select {
		case <-s.timer.C:
		default:
		}
	}
	s.timer.Reset(d)
}

// lead reads mc while s holds the read role, which began awaiting at
// start and waits at most timeout. A frame for another stream goes to that
// stream's inbox; s's own comes back in place, in the reader's buffer,
// which stays lent to s until its next request. Before giving the role
// back, lead delivers every whole frame already buffered, so the next
// holder carries over at most the start of one frame.
func (s *Session) lead(mc *muxConn, start time.Time, timeout time.Duration) ([]byte, error) {
	m := s.m
	m.mu.Lock()
	if frame, ok := s.take(); ok {
		// A sibling delivered s's frame before handing the role over.
		m.mu.Unlock()
		mc.role <- struct{}{}
		return frame, nil
	}
	if mc.isDead() {
		m.mu.Unlock()
		return nil, mc.deadErr
	}
	if mc.inLent {
		mc.carry = mc.in.Buffered()
		mc.in = m.spare()
		mc.in.Reset(mc)
		mc.inLent = false
	}
	in := mc.in
	m.mu.Unlock()
	for {
		now := time.Now()
		if now.Sub(start) > timeout {
			m.fail(mc, fmt.Errorf("client: stream %d answer timed out after %v", s.sid, timeout))
			return nil, mc.deadErr
		}
		if dl, ok := rearm(mc.readDL, now, timeout); ok {
			mc.conn.SetReadDeadline(dl)
			mc.readDL = dl
		}
		frame, sid, err := nextFrame(in)
		if err != nil {
			m.fail(mc, err)
			return nil, mc.deadErr
		}
		if sid != s.sid || s.stale(frame) {
			m.deliver(mc, sid, frame)
			continue
		}
		for in.Ready() {
			f, sid, err := nextFrame(in)
			if err != nil {
				m.fail(mc, err)
				break
			}
			m.deliver(mc, sid, f)
		}
		m.mu.Lock()
		mc.inLent, s.lent = true, in
		m.mu.Unlock()
		mc.role <- struct{}{}
		return frame, nil
	}
}

// nextFrame reads the next frame with in and returns it whole, with its
// stream id. An Error frame names no stream: the server is closing the
// connection behind it, so it fails the read with the server's text, as a
// framing error does.
func nextFrame(in *trace.FrameReader) ([]byte, uint32, error) {
	ft, body, err := in.Next()
	if err != nil {
		return nil, 0, fmt.Errorf("client: mux read: %w", err)
	}
	if ft == trace.FrameError {
		return nil, 0, fmt.Errorf("%w: %s", ErrServer, body)
	}
	sid, _, err := trace.SplitStreamID(body)
	if err != nil {
		return nil, 0, fmt.Errorf("client: mux read: %w", err)
	}
	return in.Frame(), sid, nil
}

// openOnConn runs one StreamOpen exchange for s on mc, refreshing the
// stream's negotiated parameters on success.
func (s *Session) openOnConn(mc *muxConn) error {
	body, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: s.sid, TxnSize: s.txnSize, Scheme: s.scheme})
	if err != nil {
		return err
	}
	frame, err := trace.AppendFrame(nil, trace.FrameStreamOpen, body)
	if err != nil {
		return err
	}
	answer, _, err := s.request(mc, frame, s.cfg.IOTimeout)
	if err != nil {
		return fmt.Errorf("client: opening stream %d: %w", s.sid, err)
	}
	// The reader fails the generation on an Error frame, so none reaches
	// this check.
	ok, err := trace.CheckStreamOpen(trace.FrameType(answer[4]), answer[trace.FrameHeaderBytes:], s.sid)
	switch {
	case err != nil:
		// A damaged verdict leaves unknown whether the stream opened: the
		// connection is out of step with the server.
		err = fmt.Errorf("client: opening stream %d: %w", s.sid, err)
		s.m.fail(mc, err)
		return err
	case ok.Kind == trace.AnswerRefused:
		return fmt.Errorf("%w: stream %d refused: %s", ErrServer, s.sid, ok.Msg)
	}
	s.setGeometry(ok.MetaBits, ok.BatchLimit)
	s.needsReopen = false
	return nil
}

// Close retires the stream: a StreamClose when the session opened the
// stream on the live connection and the server has not closed it (so the
// server frees the codec), then local deregistration. A session Stream
// registered only deregisters. The Mux and its other sessions are
// unaffected.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	m := s.m
	m.mu.Lock()
	mc := m.conn
	live := mc != nil && !mc.isDead() && !s.needsReopen && s.gen == mc
	delete(m.sessions, s.sid)
	if n := len(m.sessions); len(m.spares) > n {
		clear(m.spares[n:])
		m.spares = m.spares[:n]
	}
	m.mu.Unlock()
	s.reclaim(false)
	if !live {
		return nil
	}
	// The session is already deregistered, so the reader drops the
	// StreamClosed ack; the write below only pushes the close out and
	// confirms the write path still works.
	frame, err := trace.AppendFrame(nil, trace.FrameStreamClose, trace.MarshalStreamClose(s.sid))
	if err == nil {
		err = mc.write(frame, s.cfg.IOTimeout)
	}
	if err != nil {
		return fmt.Errorf("client: closing stream %d: %w", s.sid, err)
	}
	return nil
}

// Close tears down the mux: the shared connection closes and every
// session's next operation fails with ErrMuxClosed.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	mc := m.conn
	m.conn, m.spares = nil, nil
	for sid, s := range m.sessions {
		s.closed = true
		delete(m.sessions, sid)
	}
	m.mu.Unlock()
	if mc != nil {
		m.fail(mc, ErrMuxClosed)
	}
	return nil
}
