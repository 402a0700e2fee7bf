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
// The connection is dialed lazily on the first Open (whose scheme and
// transaction size become the Hello parameters, implicitly opening stream
// 0) and re-dialed transparently when it breaks: every Session's epoch
// advances (the server-side codecs are gone) and each stream re-opens on
// the replacement connection on its next use.
type Mux struct {
	addr string
	cfg  Config

	mu       sync.Mutex
	conn     *muxConn
	sessions map[uint32]*Session
	nextSID  uint32
	closed   bool
	// helloScheme/helloTxn are the first Open's parameters, replayed as
	// the Hello of every redial (the Hello implicitly opens stream 0).
	helloScheme string
	helloTxn    int
	// hello is the current connection generation's checked HelloOK:
	// stream 0's negotiated geometry.
	hello trace.Answer

	reconnects atomic.Uint64
}

// muxConn is one generation of the shared connection. Writes from any
// session serialize on wmu; a single reader goroutine owns in and routes
// reply frames to sessions by stream id. dead is closed (once) when the
// connection fails, waking every waiting session.
type muxConn struct {
	conn net.Conn
	in   trace.FrameReader
	gen  uint64

	wmu sync.Mutex

	dead     chan struct{}
	deadErr  error
	deadOnce sync.Once
}

// fail marks the connection dead with err and closes the socket, waking
// the reader and every session blocked on a reply.
func (mc *muxConn) fail(err error) {
	mc.deadOnce.Do(func() {
		mc.deadErr = err
		close(mc.dead)
		mc.conn.Close()
	})
}

func (mc *muxConn) isDead() bool {
	select {
	case <-mc.dead:
		return true
	default:
		return false
	}
}

// muxFrame is one reply frame routed to a session: the type and the full
// v4 body (stream-id prefix included), copied by the mux reader into fb, a
// buffer the session owns until it hands fb back.
type muxFrame struct {
	ft   trace.FrameType
	body []byte
	fb   *frameBuf
}

// frameBuf is a session's reply buffer; it keeps the capacity of the
// largest reply copied into it.
type frameBuf struct{ b []byte }

// Session is one logical stream on a Mux: an independent transcoding
// session with its own codec state on the server, batch-id space, epoch,
// and retry accounting. Like Client, a Session is not safe for concurrent
// use — drive each from one goroutine.
type Session struct {
	stream
	m *Mux
	// mc is the connection generation the current attempt runs on.
	mc *muxConn

	// gen is the mux connection generation this stream last opened on;
	// needsReopen is set when the stream must StreamOpen before its next
	// batch (new generation, or the server killed the stream).
	gen         uint64
	needsReopen bool
	closed      bool

	// replyCh receives this stream's frames from the mux reader. Capacity
	// one: the per-stream discipline is one frame in flight, and the
	// reader drops (never blocks on) anything beyond that.
	replyCh chan muxFrame
	// free returns frame buffers to the mux reader, which reads this
	// stream's next frame into the buffer it finds there, so replies
	// recycle one buffer instead of allocating. held is the buffer the
	// last received frame (and the reply Transcode returned) aliases; it
	// goes back on free when the next exchange starts. Capacity one, like
	// replyCh.
	free chan *frameBuf
	held *frameBuf
	// timer bounds each await; one per session, re-armed per exchange.
	timer *time.Timer
}

// NewMux prepares a multiplexed client for addr. No connection is opened
// until the first Open.
func NewMux(addr string, cfg Config) (*Mux, error) {
	return &Mux{
		addr:     addr,
		cfg:      cfg.withDefaults(),
		sessions: make(map[uint32]*Session),
	}, nil
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
		if err := m.redialLocked(); err != nil {
			if first {
				// Let the next Open retry with its own hello parameters.
				m.helloScheme, m.helloTxn = "", 0
			}
			m.mu.Unlock()
			return nil, err
		}
	}
	mc := m.conn
	s := &Session{
		m:       m,
		gen:     mc.gen,
		replyCh: make(chan muxFrame, 1),
		free:    make(chan *frameBuf, 1),
	}
	s.stream = stream{cfg: &m.cfg, sid: m.nextSID, scheme: scheme, txnSize: txnSize}
	m.nextSID++
	m.sessions[s.sid] = s
	if s.sid == 0 {
		// Stream 0 was opened by the Hello itself; its negotiated
		// parameters are the handshake's.
		s.setGeometry(m.hello.MetaBits, m.hello.BatchLimit)
		m.mu.Unlock()
		return s, nil
	}
	m.mu.Unlock()

	if err := s.openOnConn(mc); err != nil {
		m.mu.Lock()
		delete(m.sessions, s.sid)
		m.mu.Unlock()
		return nil, err
	}
	return s, nil
}

// redialLocked dials and handshakes a fresh connection generation. Called
// with m.mu held. On anything but the first dial, every live session's
// epoch advances — the server-side codecs died with the old connection —
// and each stream lazily re-opens on next use.
func (m *Mux) redialLocked() error {
	start := time.Now()
	// DialTimeout bounds the dial and the handshake together: m.mu is held
	// throughout, so every sibling's Open, Close and reply routing waits
	// on this.
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.DialTimeout)
	defer cancel()
	mc := &muxConn{
		gen:  1,
		dead: make(chan struct{}),
	}
	if m.conn != nil {
		mc.gen = m.conn.gen + 1
	}
	conn, ok, err := connect(ctx, &m.cfg, m.addr, m.helloScheme, m.helloTxn, &mc.in)
	if err != nil {
		return err
	}
	mc.conn = conn
	m.hello = ok
	if mc.gen > 1 {
		m.reconnects.Add(1)
		for _, s := range m.sessions {
			s.epoch.Add(1)
		}
		m.cfg.Tracer.ObserveStage(m.helloScheme, obs.StageReconnect, time.Since(start))
	}
	if s := m.sessions[0]; s != nil {
		// The redial Hello re-opened stream 0 with its original
		// parameters; refresh what the server (re)negotiated.
		s.setGeometry(ok.MetaBits, ok.BatchLimit)
	}
	m.conn = mc
	conn.SetDeadline(time.Time{})
	go m.readLoop(mc)
	return nil
}

// readLoop is the demultiplexer: it owns the connection's read side,
// routing every frame to the session its stream-id prefix names. Frames
// are read in place, several per Read when they arrive back to back, and
// each is copied once, into a buffer its session handed back, so a reply
// is not allocated. A frame for an unknown stream is dropped (the stream
// closed concurrently). An Error frame names no stream: the server is
// closing the connection behind it, so it kills the connection generation
// with the server's text, as a read or framing error does, waking every
// waiting session.
func (m *Mux) readLoop(mc *muxConn) {
	for {
		ft, body, err := mc.in.Next()
		if err == nil && ft == trace.FrameError {
			mc.fail(fmt.Errorf("%w: %s", ErrServer, body))
			return
		}
		var sid uint32
		if err == nil {
			sid, _, err = trace.SplitStreamID(body)
		}
		if err != nil {
			mc.fail(fmt.Errorf("client: mux read: %w", err))
			return
		}
		m.mu.Lock()
		s := m.sessions[sid]
		m.mu.Unlock()
		if s == nil {
			continue
		}
		var fb *frameBuf
		select {
		case fb = <-s.free:
		default:
			// The session still holds its buffer (first frame, or one
			// beyond the single frame in flight).
			fb = new(frameBuf)
		}
		fb.b = append(fb.b[:0], body...)
		select {
		case s.replyCh <- muxFrame{ft: ft, body: fb.b, fb: fb}:
		default:
			// More than one frame outstanding for the stream can only be
			// an unsolicited duplicate; the stream learns its fate from
			// the frame already queued (or from its next exchange).
			s.recycle(fb)
		}
	}
}

// ensure returns a live connection generation for s to exchange on,
// redialing the shared connection and re-opening this stream as needed.
func (m *Mux) ensure(s *Session) (*muxConn, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrMuxClosed
	}
	if m.conn == nil || m.conn.isDead() {
		if err := m.redialLocked(); err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	mc := m.conn
	m.mu.Unlock()
	if s.gen != mc.gen {
		s.gen = mc.gen
		// The redial Hello re-opened stream 0; every other stream must
		// re-open explicitly.
		s.needsReopen = s.sid != 0
	}
	if s.needsReopen {
		if err := s.openOnConn(mc); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

// writeFrame sends one whole frame, header included, on the shared
// connection in one Write, serializing with every other session's writes.
func (mc *muxConn) writeFrame(frame []byte, timeout time.Duration) error {
	mc.wmu.Lock()
	defer mc.wmu.Unlock()
	mc.conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := mc.conn.Write(frame)
	return err
}

// recycle offers fb back to the mux reader for this stream's next frame;
// a buffer beyond the one the reader can hold is left to the collector.
func (s *Session) recycle(fb *frameBuf) {
	select {
	case s.free <- fb:
	default:
	}
}

// reclaim readies s for a new request: the buffer of the last frame goes
// back to the reader (the caller is done with the previous reply) and any
// stale frame left over from a timed-out attempt, a previous generation
// or a killed stream is dropped.
func (s *Session) reclaim() {
	if s.held != nil {
		s.recycle(s.held)
		s.held = nil
	}
	select {
	case f := <-s.replyCh:
		s.recycle(f.fb)
	default:
	}
}

// await blocks until the reader routes a frame to s, the connection
// generation dies, or timeout passes (which kills the generation: the
// server answers in order, so a missing reply means the connection is
// gone or desynchronized). The frame's buffer stays held by s until the
// next reclaim.
func (s *Session) await(mc *muxConn, timeout time.Duration) (muxFrame, error) {
	if s.timer == nil {
		s.timer = time.NewTimer(timeout)
	} else {
		// go.mod's language version keeps the pre-1.23 timer channel: a
		// timer that fired unobserved leaves a value behind, so stop and
		// drain before re-arming.
		if !s.timer.Stop() {
			select {
			case <-s.timer.C:
			default:
			}
		}
		s.timer.Reset(timeout)
	}
	select {
	case f := <-s.replyCh:
		s.held = f.fb
		return f, nil
	case <-mc.dead:
		return muxFrame{}, mc.deadErr
	case <-s.timer.C:
		err := fmt.Errorf("client: stream %d reply timed out after %v", s.sid, timeout)
		mc.fail(err)
		return muxFrame{}, err
	}
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
	s.reclaim()
	if err := mc.writeFrame(frame, s.m.cfg.IOTimeout); err != nil {
		return fmt.Errorf("client: opening stream %d: %w", s.sid, err)
	}
	f, err := s.await(mc, s.m.cfg.IOTimeout)
	if err != nil {
		return fmt.Errorf("client: opening stream %d: %w", s.sid, err)
	}
	// The reader fails the generation on an Error frame, so the answer is
	// never AnswerEnded here.
	ok, err := trace.CheckStreamOpen(f.ft, f.body, s.sid)
	switch {
	case err != nil:
		// A damaged verdict leaves unknown whether the stream opened: the
		// connection is out of step with the server.
		err = fmt.Errorf("client: opening stream %d: %w", s.sid, err)
		mc.fail(err)
		return err
	case ok.Kind == trace.AnswerRefused:
		return fmt.Errorf("%w: stream %d refused: %s", ErrServer, s.sid, ok.Msg)
	}
	s.setGeometry(ok.MetaBits, ok.BatchLimit)
	s.needsReopen = false
	return nil
}

// ID returns the stream id this session multiplexes on.
func (s *Session) ID() uint32 { return s.sid }

// Transcode sends one batch on this stream and waits for its reply,
// retrying recoverable failures (Busy sheds, BatchError replies, stream
// kills, broken connections) up to Config.MaxRetries times, exactly like
// Client.Transcode — but sibling streams keep exchanging batches on the
// shared connection the whole time. The reply's Records alias a frame
// buffer the session recycles: they are valid until the next call on this
// Session, which hands the buffer back to the mux reader for the next
// reply. Copy anything that must outlive that.
func (s *Session) Transcode(txns []trace.Transaction) (trace.BatchReply, error) {
	if s.closed {
		return trace.BatchReply{}, ErrMuxClosed
	}
	return s.transcode(s, txns)
}

// ready finds a live connection generation for the next attempt,
// redialing the shared connection and re-opening this stream as needed.
func (s *Session) ready() error {
	mc, err := s.m.ensure(s)
	if err != nil {
		return err
	}
	s.mc = mc
	return nil
}

func (s *Session) send(frame []byte) error {
	s.reclaim()
	return s.mc.writeFrame(frame, s.m.cfg.IOTimeout)
}

func (s *Session) recv() (trace.FrameType, []byte, error) {
	f, err := s.await(s.mc, s.m.cfg.IOTimeout)
	return f.ft, f.body, err
}

// broken kills the connection generation; every stream's epoch advances
// when the next attempt redials.
func (s *Session) broken(err error) { s.mc.fail(err) }

// killed handles the server retiring this stream while the connection
// lives on: the server-side codec is gone, so the epoch moves and the next
// attempt re-opens the stream fresh.
func (s *Session) killed(msg string) (exchangeKind, error) {
	s.epoch.Add(1)
	s.needsReopen = true
	return exchangeFault, fmt.Errorf("%w: stream %d: %s", ErrStreamKilled, s.sid, msg)
}

// Close retires the stream: a StreamClose exchange when the connection is
// live (so the server frees the codec), then local deregistration. The
// Mux and its other sessions are unaffected.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	m := s.m
	m.mu.Lock()
	mc := m.conn
	live := mc != nil && !mc.isDead() && !s.needsReopen && s.gen == mc.gen
	delete(m.sessions, s.sid)
	m.mu.Unlock()
	if !live {
		return nil
	}
	// The session is already deregistered, so the reader drops the
	// StreamClosed ack; the exchange below only pushes the close out and
	// confirms the write path still works.
	frame, err := trace.AppendFrame(nil, trace.FrameStreamClose, trace.MarshalStreamClose(s.sid))
	if err == nil {
		err = mc.writeFrame(frame, m.cfg.IOTimeout)
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
	m.conn = nil
	for sid, s := range m.sessions {
		s.closed = true
		delete(m.sessions, sid)
	}
	m.mu.Unlock()
	if mc != nil {
		mc.fail(ErrMuxClosed)
	}
	return nil
}
