package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

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
// BXTP protocol v4 stream framing. Open vends one Session per logical
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
//
// The server must negotiate protocol v4; a peer that negotiates down
// cannot demultiplex, so Open fails rather than degrade.
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
	version     uint8

	reconnects atomic.Uint64
}

// muxConn is one generation of the shared connection. Writes from any
// session serialize on wmu; a single reader goroutine owns br and routes
// reply frames to sessions by stream id. dead is closed (once) when the
// connection fails, waking every waiting session.
type muxConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
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
// v4 body (stream-id prefix included), read by the mux reader straight
// into fb, a buffer the session owns until it hands fb back.
type muxFrame struct {
	ft   trace.FrameType
	body []byte
	fb   *trace.FrameBuffer
}

// Session is one logical stream on a Mux: an independent transcoding
// session with its own codec state on the server, batch-id space, epoch,
// and retry accounting. Like Client, a Session is not safe for concurrent
// use — drive each from one goroutine.
type Session struct {
	m   *Mux
	sid uint32

	scheme     string
	txnSize    int
	metaBits   int
	metaBytes  int
	batchLimit int

	// epoch advances whenever the server-side codec for this stream
	// restarted: on every mux reconnect, on a stream kill + re-open, and
	// on a BatchError carrying the reset flag. Atomic because a reconnect
	// (driven by a sibling session's goroutine) bumps it from outside.
	epoch atomic.Uint64

	// gen is the mux connection generation this stream last opened on;
	// needsReopen is set when the stream must StreamOpen before its next
	// batch (new generation, or the server killed the stream).
	gen         uint64
	needsReopen bool
	closed      bool

	id      uint64
	traceID uint64
	stats   RetryStats

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
	free chan *trace.FrameBuffer
	held *trace.FrameBuffer
	// timer bounds each await; one per session, re-armed per exchange.
	timer *time.Timer

	bbuf []byte
	recs []trace.EncodedRecord
}

// NewMux prepares a multiplexed client for addr. No connection is opened
// until the first Open. cfg.Protocol, if set, must be at least 4 —
// multiplexing is a v4 capability.
func NewMux(addr string, cfg Config) (*Mux, error) {
	if cfg.Protocol != 0 && cfg.Protocol < 4 {
		return nil, fmt.Errorf("client: mux requires protocol >= 4, got %d", cfg.Protocol)
	}
	return &Mux{
		addr:     addr,
		cfg:      cfg.withDefaults(),
		sessions: make(map[uint32]*Session),
	}, nil
}

// Version returns the negotiated BXTP revision (0 before the first Open).
func (m *Mux) Version() uint8 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
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
		sid:     m.nextSID,
		scheme:  scheme,
		txnSize: txnSize,
		gen:     mc.gen,
		replyCh: make(chan muxFrame, 1),
		free:    make(chan *trace.FrameBuffer, 1),
	}
	m.nextSID++
	m.sessions[s.sid] = s
	m.mu.Unlock()

	if s.sid == 0 {
		// Stream 0 was opened by the Hello itself; its negotiated
		// parameters are the handshake's.
		return s, nil
	}
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
	dial := m.cfg.Dialer
	if dial == nil {
		d := net.Dialer{Timeout: m.cfg.DialTimeout}
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.DialTimeout)
	defer cancel()
	conn, err := dial(ctx, m.addr)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", m.addr, err)
	}
	var gen uint64 = 1
	if m.conn != nil {
		gen = m.conn.gen + 1
	}
	mc := &muxConn{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
		gen:  gen,
		dead: make(chan struct{}),
	}
	ok, err := m.handshake(mc)
	if err != nil {
		conn.Close()
		return err
	}
	if ok.Version < 4 {
		conn.Close()
		return fmt.Errorf("%w: server negotiated protocol %d; multiplexing requires 4", ErrServer, ok.Version)
	}
	m.version = ok.Version
	if gen > 1 {
		m.reconnects.Add(1)
		for _, s := range m.sessions {
			s.epoch.Add(1)
		}
	}
	if s := m.sessions[0]; s != nil {
		// The redial Hello re-opened stream 0 with its original
		// parameters; refresh what the server (re)negotiated.
		s.metaBits, s.metaBytes = ok.MetaBits, (ok.MetaBits+7)/8
		s.batchLimit = ok.BatchLimit
	}
	m.conn = mc
	conn.SetReadDeadline(time.Time{})
	go m.readLoop(mc)
	return nil
}

// handshake runs the Hello exchange on a fresh muxConn, before its reader
// starts.
func (m *Mux) handshake(mc *muxConn) (trace.HelloOK, error) {
	body, err := trace.MarshalHello(trace.Hello{
		Version: m.cfg.Protocol,
		TxnSize: m.helloTxn,
		Scheme:  m.helloScheme,
	})
	if err != nil {
		return trace.HelloOK{}, err
	}
	mc.conn.SetWriteDeadline(time.Now().Add(m.cfg.IOTimeout))
	if err := trace.WriteFrame(mc.bw, trace.FrameHello, body); err != nil {
		return trace.HelloOK{}, fmt.Errorf("client: sending hello: %w", err)
	}
	if err := mc.bw.Flush(); err != nil {
		return trace.HelloOK{}, fmt.Errorf("client: sending hello: %w", err)
	}
	mc.conn.SetReadDeadline(time.Now().Add(m.cfg.IOTimeout))
	ft, rbody, err := trace.ReadFrame(mc.br, nil)
	if err != nil {
		return trace.HelloOK{}, fmt.Errorf("client: reading hello-ok: %w", err)
	}
	switch ft {
	case trace.FrameHelloOK:
		ok, err := trace.ParseHelloOK(rbody)
		if err != nil {
			return trace.HelloOK{}, err
		}
		if ok.Version < trace.MinProtocolVersion || ok.Version > m.cfg.Protocol {
			return trace.HelloOK{}, fmt.Errorf("%w: server negotiated protocol version %d, requested <= %d",
				ErrServer, ok.Version, m.cfg.Protocol)
		}
		return ok, nil
	case trace.FrameError:
		return trace.HelloOK{}, fmt.Errorf("%w: %s", ErrServer, rbody)
	default:
		return trace.HelloOK{}, fmt.Errorf("%w: unexpected frame type %#x in handshake", trace.ErrBadFrame, ft)
	}
}

// readLoop is the demultiplexer: it owns the connection's read side,
// routing every frame to the session its stream-id prefix names. It peeks
// the stream id first and reads the frame straight into a buffer the
// session handed back, so a reply is neither copied nor allocated. A
// frame for an unknown stream is dropped (the stream closed
// concurrently); a read or framing error kills the connection generation,
// waking every waiting session.
func (m *Mux) readLoop(mc *muxConn) {
	var discard trace.FrameBuffer // frames for streams no longer open
	for {
		sid, err := trace.PeekStreamID(mc.br)
		if err != nil {
			mc.fail(fmt.Errorf("client: mux read: %w", err))
			return
		}
		m.mu.Lock()
		s := m.sessions[sid]
		m.mu.Unlock()
		fb := &discard
		if s != nil {
			select {
			case fb = <-s.free:
			default:
				// The session still holds its buffer (first frame, or one
				// beyond the single frame in flight).
				fb = new(trace.FrameBuffer)
			}
		}
		ft, body, err := fb.ReadFrame(mc.br)
		if err != nil {
			mc.fail(fmt.Errorf("client: mux read: %w", err))
			return
		}
		if s == nil {
			continue
		}
		select {
		case s.replyCh <- muxFrame{ft: ft, body: body, fb: fb}:
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

// writeFrame sends one frame on the shared connection, serializing with
// every other session's writes.
func (mc *muxConn) writeFrame(ft trace.FrameType, body []byte, timeout time.Duration) error {
	mc.wmu.Lock()
	defer mc.wmu.Unlock()
	mc.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := trace.WriteFrame(mc.bw, ft, body); err != nil {
		return err
	}
	return mc.bw.Flush()
}

// recycle offers fb back to the mux reader for this stream's next frame;
// a buffer beyond the one the reader can hold is left to the collector.
func (s *Session) recycle(fb *trace.FrameBuffer) {
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
	s.reclaim()
	if err := mc.writeFrame(trace.FrameStreamOpen, body, s.m.cfg.IOTimeout); err != nil {
		return fmt.Errorf("client: opening stream %d: %w", s.sid, err)
	}
	f, err := s.await(mc, s.m.cfg.IOTimeout)
	if err != nil {
		return fmt.Errorf("client: opening stream %d: %w", s.sid, err)
	}
	if f.ft != trace.FrameStreamOpenOK {
		err := fmt.Errorf("%w: unexpected frame type %#x answering stream open", trace.ErrBadFrame, f.ft)
		mc.fail(err)
		return err
	}
	ok, err := trace.ParseStreamOpenOK(f.body)
	if err != nil || ok.ID != s.sid {
		err := fmt.Errorf("client: malformed stream-open-ok for stream %d (id %d, err %v)", s.sid, ok.ID, err)
		mc.fail(err)
		return err
	}
	if ok.Status != trace.StreamOK {
		return fmt.Errorf("%w: stream %d refused: %s", ErrServer, s.sid, ok.Msg)
	}
	s.metaBits, s.metaBytes = ok.MetaBits, (ok.MetaBits+7)/8
	s.batchLimit = ok.BatchLimit
	s.needsReopen = false
	return nil
}

// ID returns the stream id this session multiplexes on.
func (s *Session) ID() uint32 { return s.sid }

// Scheme returns the session's scheme name.
func (s *Session) Scheme() string { return s.scheme }

// TxnSize returns the session's transaction size in bytes.
func (s *Session) TxnSize() int { return s.txnSize }

// MetaBits returns the scheme's side-band width per transaction as
// negotiated when the stream opened.
func (s *Session) MetaBits() int { return s.metaBits }

// BatchLimit returns the server's maximum batch size for this stream.
func (s *Session) BatchLimit() int { return s.batchLimit }

// Epoch returns the stream's codec epoch; see Client.Epoch. Stream
// epochs are independent: a sibling stream's kill or codec reset never
// moves this one, only a full connection loss does.
func (s *Session) Epoch() uint64 { return s.epoch.Load() }

// RetryStats returns the fault-recovery counters accumulated so far.
func (s *Session) RetryStats() RetryStats { return s.stats }

// LastTraceID returns the trace id of the most recent Transcode call.
func (s *Session) LastTraceID() uint64 { return s.traceID }

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
	if len(txns) == 0 {
		return trace.BatchReply{}, fmt.Errorf("%w: empty batch", trace.ErrBadFrame)
	}
	if s.batchLimit > 0 && len(txns) > s.batchLimit {
		return trace.BatchReply{}, fmt.Errorf("%w: batch of %d exceeds server limit %d", trace.ErrBadFrame, len(txns), s.batchLimit)
	}
	s.id++
	id := s.id
	s.traceID = newTraceID()
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt <= s.m.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			s.stats.Retries++
			sleepBackoff(s.m.cfg, attempt, hint)
			hint = 0
		}
		mc, err := s.m.ensure(s)
		if err != nil {
			lastErr = err
			continue
		}
		reply, h, kind, err := s.exchange(mc, id, txns)
		switch kind {
		case exchangeOK:
			return reply, nil
		case exchangeCaller:
			return trace.BatchReply{}, err
		case exchangeBusy:
			s.stats.Busy++
			hint = h
		case exchangeFault:
			s.stats.BatchErrors++
		case exchangeBroken:
			mc.fail(err)
		}
		lastErr = err
	}
	return trace.BatchReply{}, lastErr
}

// exchange performs one send/receive of batch id on mc. Outcomes follow
// Client.exchange, with one addition: a StreamClosed reply (the server
// killed this stream) classifies as a retryable fault after bumping the
// epoch and scheduling a stream re-open.
func (s *Session) exchange(mc *muxConn, id uint64, txns []trace.Transaction) (trace.BatchReply, time.Duration, exchangeKind, error) {
	buf := trace.AppendStreamID(s.bbuf[:0], s.sid)
	body, err := trace.AppendBatch(trace.AppendTraceEnvelope(buf, id, s.traceID), txns, s.txnSize)
	if err != nil {
		return trace.BatchReply{}, 0, exchangeCaller, err
	}
	s.bbuf = body[:0]
	if err := trace.SealBatchEnvelope(body[4:]); err != nil {
		return trace.BatchReply{}, 0, exchangeCaller, err // unreachable: envelope present
	}
	s.reclaim()
	if err := mc.writeFrame(trace.FrameBatch, body, s.m.cfg.IOTimeout); err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: sending batch: %w", err)
	}
	f, err := s.await(mc, s.m.cfg.IOTimeout)
	if err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: reading reply: %w", err)
	}

	if f.ft == trace.FrameStreamClosed {
		_, msg, perr := trace.ParseStreamClosed(f.body)
		if perr != nil {
			return trace.BatchReply{}, 0, exchangeBroken, perr
		}
		// The server retired this stream but the connection lives on; the
		// server-side codec is gone, so the epoch moves and the next
		// attempt re-opens the stream fresh.
		s.epoch.Add(1)
		s.needsReopen = true
		return trace.BatchReply{}, 0, exchangeFault, fmt.Errorf("%w: stream %d: %s", ErrStreamKilled, s.sid, msg)
	}
	_, rbody, err := trace.SplitStreamID(f.body)
	if err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: reading reply: %w", err)
	}
	switch f.ft {
	case trace.FrameBatchReply:
		rid, rtrace, payload, err := trace.OpenTraceEnvelope(rbody)
		if err != nil {
			return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: reply for batch %d: %w", id, err)
		}
		if rtrace != s.traceID {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: reply carries trace %#x, expected %#x (stream desynchronized)", rtrace, s.traceID)
		}
		if rid != id {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: reply names batch %d, expected %d (stream desynchronized)", rid, id)
		}
		reply, err := trace.ParseBatchReplyInto(payload, s.txnSize, s.metaBytes, s.recs)
		if err != nil {
			return trace.BatchReply{}, 0, exchangeBroken, err
		}
		s.recs = reply.Records
		return reply, 0, exchangeOK, nil
	case trace.FrameBusy:
		rid, after, err := trace.ParseBusy(rbody)
		if err != nil || rid != id {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: malformed busy reply for batch %d (id %d, err %v)", id, rid, err)
		}
		return trace.BatchReply{}, after, exchangeBusy,
			fmt.Errorf("%w: batch %d shed, retry after %v", ErrBusy, id, after)
	case trace.FrameBatchError:
		rid, reset, msg, err := trace.ParseBatchError(rbody)
		if err != nil || rid != id {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: malformed batch-error reply for batch %d (id %d, err %v)", id, rid, err)
		}
		if reset {
			s.epoch.Add(1)
		}
		return trace.BatchReply{}, 0, exchangeFault, fmt.Errorf("%w: %s", ErrBatchFault, msg)
	case trace.FrameError:
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("%w: %s", ErrServer, rbody)
	default:
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("%w: unexpected frame type %#x", trace.ErrBadFrame, f.ft)
	}
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
	if err := mc.writeFrame(trace.FrameStreamClose, trace.MarshalStreamClose(s.sid), m.cfg.IOTimeout); err != nil {
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

// sleepBackoff sleeps one retry backoff: exponential with jitter, floored
// by the server's Busy hint. Shared by Client and Session retries.
func sleepBackoff(cfg Config, attempt int, hint time.Duration) {
	d := cfg.RetryBackoff << (attempt - 1)
	if d <= 0 || d > cfg.RetryBackoffMax {
		d = cfg.RetryBackoffMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	time.Sleep(d)
}
