package client

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// connect dials addr and runs the Hello handshake for (scheme, txnSize) on
// the new connection, resetting in onto it, and returns the HelloOK's
// negotiated geometry. The handshake's I/O is bounded by the earlier of
// ctx's deadline and IOTimeout from now, so a context-bounded dial bounds
// the handshake too. On any failure — including ctx canceling
// mid-handshake — the socket is closed before connect returns, never
// leaked. A refusal, or an answer other than a HelloOK naming
// trace.ProtocolVersion, fails with ErrServer.
func connect(ctx context.Context, cfg *Config, addr, scheme string, txnSize int, in *trace.FrameReader) (net.Conn, trace.Answer, error) {
	body, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: txnSize, Scheme: scheme})
	if err != nil {
		return nil, trace.Answer{}, err
	}
	hello, err := trace.AppendFrame(nil, trace.FrameHello, body)
	if err != nil {
		return nil, trace.Answer{}, err
	}
	conn, err := cfg.Dialer(ctx, addr)
	if err != nil {
		return nil, trace.Answer{}, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	// The dialer honors ctx, but the handshake I/O below does not by
	// itself: closing the socket on cancellation fails that I/O promptly
	// and guarantees no leaked connection either way.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	in.Reset(conn)
	deadline := time.Now().Add(cfg.IOTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	ok, err := handshake(conn, in, hello)
	if err != nil {
		conn.Close()
		if ctx.Err() != nil {
			return nil, trace.Answer{}, fmt.Errorf("client: handshake: %w", ctx.Err())
		}
		return nil, trace.Answer{}, err
	}
	if !stop() {
		// ctx fired during the handshake and already closed the socket.
		return nil, trace.Answer{}, fmt.Errorf("client: handshake: %w", ctx.Err())
	}
	return conn, ok, nil
}

// handshake sends the Hello frame and reads the server's answer.
func handshake(conn net.Conn, in *trace.FrameReader, hello []byte) (trace.Answer, error) {
	if _, err := conn.Write(hello); err != nil {
		return trace.Answer{}, fmt.Errorf("client: sending hello: %w", err)
	}
	ft, body, err := in.Next()
	if err != nil {
		return trace.Answer{}, fmt.Errorf("client: reading hello-ok: %w", err)
	}
	a, err := trace.CheckHello(ft, body)
	if err != nil {
		return trace.Answer{}, fmt.Errorf("%w: handshake: %w", ErrServer, err)
	}
	if a.Kind != trace.AnswerOK {
		return trace.Answer{}, fmt.Errorf("%w: %s", ErrServer, a.Msg)
	}
	return a, nil
}

// Session is one logical stream on a Mux: an independent transcoding
// session with its own codec state on the server, batch-id space, epoch,
// and retry accounting. Like Client, a Session is not safe for concurrent
// use — drive each from one goroutine.
type Session struct {
	m   *Mux
	cfg *Config
	sid uint32

	scheme     string
	txnSize    int
	metaBits   int
	metaBytes  int
	batchLimit int

	// id numbers outgoing batches; replies are matched against it so a
	// retry can never be double-applied. traceID is the current batch's
	// end-to-end trace id: drawn fresh (and nonzero) per Transcode call,
	// stable across that call's retries so every attempt of one logical
	// batch shares one trace.
	id      uint64
	traceID uint64
	// epoch advances whenever the server-side codec restarted: once per
	// failed connection generation the stream was on, on a stream kill,
	// and on a BatchError carrying the reset flag. Atomic because a
	// sibling failing the connection bumps it while s is between calls.
	epoch atomic.Uint64
	stats RetryStats

	// bbuf (the request frame), recs and span are reused across
	// Transcode calls so a steady-state streaming client allocates nothing
	// per batch; span is made at the first traced reply, so a session
	// that records no spans carries none.
	bbuf []byte
	recs []trace.EncodedRecord
	span *obs.Span

	// gen, guarded by m.mu, is the connection generation this stream
	// last opened on, nil once its failure is counted in epoch. inCall is
	// set while a Transcode runs. needsReopen is set when the stream must
	// StreamOpen before its next batch (new generation, or a kill).
	gen         *muxConn
	inCall      atomic.Bool
	needsReopen bool
	closed      bool

	// The inbox, guarded by m.mu: a frame a sibling read for this stream,
	// copied whole into buf. full marks one not yet taken, held one taken
	// whose bytes the caller may still be reading; a frame arriving while
	// either is set is stale and dropped. lent is the reader whose buffer holds
	// the frame this session last read itself. All of it is handed back
	// when the session sends its next request; opening marks that request
	// a StreamOpen.
	buf                 []byte
	full, held, opening bool
	lent                *trace.FrameReader
	// wake signals a delivered frame; timer bounds a follower's wait.
	wake  chan struct{}
	timer *time.Timer
}

// setGeometry records the metadata width and batch limit the server
// negotiated for this stream.
func (s *Session) setGeometry(metaBits, batchLimit int) {
	s.metaBits, s.metaBytes = metaBits, (metaBits+7)/8
	s.batchLimit = batchLimit
}

// Scheme returns the session's scheme name.
func (s *Session) Scheme() string { return s.scheme }

// TxnSize returns the session's transaction size in bytes.
func (s *Session) TxnSize() int { return s.txnSize }

// MetaBits returns the scheme's side-band width per transaction as
// negotiated in the handshake or stream open.
func (s *Session) MetaBits() int { return s.metaBits }

// BatchLimit returns the server's maximum batch size.
func (s *Session) BatchLimit() int { return s.batchLimit }

// Epoch returns the codec epoch: it advances every time the server-side
// codec restarted (a lost connection, a stream kill, or a BatchError with
// the reset flag). Callers decoding a stateful scheme must reset their
// decoder whenever Epoch, read after Transcode, differs from the value
// they last observed. Stream epochs are independent: a sibling stream's
// kill or codec reset never moves this one, only a connection loss does,
// and a loss during a Transcode that returns a reply counts in the next
// call, since that reply was encoded before it.
func (s *Session) Epoch() uint64 { return s.epoch.Load() }

// RetryStats returns the fault-recovery counters accumulated so far.
func (s *Session) RetryStats() RetryStats { return s.stats }

// LastTraceID returns the trace id of the most recent Transcode call (zero
// before the first call). The gateway and any proxy label their spans for
// that batch with the same id, so it is the key to query their
// /debug/trace surfaces with.
func (s *Session) LastTraceID() uint64 { return s.traceID }

// newTraceID draws a nonzero trace id; zero is reserved to mean
// "untraced" throughout the stack.
func newTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// exchangeKind classifies one batch exchange's outcome.
type exchangeKind int

const (
	exchangeOK     exchangeKind = iota
	exchangeBusy                // retryable on the same connection, after the hint
	exchangeFault               // BatchError or stream kill: retryable
	exchangeBroken              // the connection is unusable; redial before retrying
	exchangeCaller              // caller error (bad batch); never retried
)

// ID returns the stream id this session multiplexes on.
func (s *Session) ID() uint32 { return s.sid }

// Transcode sends one batch on this stream and waits for its reply,
// retrying recoverable failures (Busy sheds, BatchError replies, stream
// kills, broken connections) up to Config.MaxRetries times; sibling
// streams keep exchanging batches on the shared connection the whole
// time. Every transaction must carry TxnSize bytes and len(txns) must not
// exceed BatchLimit. The reply's Records alias a buffer the session hands
// back on its next call: they are valid until then. Copy anything that
// must outlive that.
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
	s.traceID = newTraceID()
	defer s.inCall.Store(false)
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt <= s.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			s.stats.Retries++
			s.backoff(attempt, hint)
			hint = 0
		}
		mc, err := s.m.ensure(s)
		if err != nil {
			lastErr = err
			continue
		}
		reply, h, kind, err := s.exchange(mc, txns)
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
			s.m.fail(mc, err)
			s.m.mu.Lock()
			s.leaveLocked(mc) // no answer is held, so the epoch moves now
			s.m.mu.Unlock()
		}
		lastErr = err
	}
	return trace.BatchReply{}, lastErr
}

// exchange sends the current batch on mc through request and classifies
// the answer. It returns the reply, the server's retry-after hint (Busy
// only), the outcome class, and the error for every class but exchangeOK.
func (s *Session) exchange(mc *muxConn, txns []trace.Transaction) (trace.BatchReply, time.Duration, exchangeKind, error) {
	writeStart := time.Now()
	// The request is built as a whole frame: header room, then the body,
	// which leads with the stream id; the envelope and its CRC cover
	// everything after it.
	buf := trace.AppendStreamID(trace.BeginFrame(s.bbuf[:0]), s.sid)
	buf = trace.AppendTraceEnvelope(buf, s.id, s.traceID)
	frame, err := trace.AppendBatch(buf, txns, s.txnSize)
	if err != nil {
		return trace.BatchReply{}, 0, exchangeCaller, err
	}
	s.bbuf = frame[:0]
	if err := trace.SealBatchEnvelope(frame[trace.FrameHeaderBytes+4:]); err != nil {
		return trace.BatchReply{}, 0, exchangeCaller, err // unreachable: envelope present
	}
	if err := trace.SealFrame(frame, trace.FrameBatch); err != nil {
		return trace.BatchReply{}, 0, exchangeCaller, err
	}
	answer, sent, err := s.request(mc, frame, s.cfg.IOTimeout)
	if err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, err
	}
	writeDur, readDur := sent.Sub(writeStart), time.Since(sent)
	s.cfg.Tracer.ObserveStage(s.scheme, obs.StageFrameWrite, writeDur)
	s.cfg.Tracer.ObserveStage(s.scheme, obs.StageFrameRead, readDur)
	return s.classify(trace.FrameType(answer[4]), answer[trace.FrameHeaderBytes:], writeDur, readDur)
}

// classify turns the answer to the current batch into an outcome. A
// successful reply also records the batch's client-side span when
// Config.Trace is set.
func (s *Session) classify(ft trace.FrameType, body []byte, writeDur, readDur time.Duration) (trace.BatchReply, time.Duration, exchangeKind, error) {
	a, err := trace.CheckBatch(ft, body, s.sid, s.id, s.traceID)
	if err != nil {
		// A damaged answer — a CRC failure included — leaves the stream
		// out of step, and the server may already have applied the batch,
		// so its codec state is unusable: reconnect for a clean epoch.
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: answer to batch %d on stream %d: %w", s.id, s.sid, err)
	}
	// The reader fails the generation on an Error frame, so none reaches
	// this check.
	switch a.Kind {
	case trace.AnswerKilled:
		// The server retired this stream while the connection lives on:
		// the server-side codec is gone, so the epoch moves, and the next
		// attempt re-opens the stream fresh (request marked it).
		s.epoch.Add(1)
		return trace.BatchReply{}, 0, exchangeFault, fmt.Errorf("%w: stream %d: %s", ErrStreamKilled, s.sid, a.Msg)
	case trace.AnswerBusy:
		return trace.BatchReply{}, a.RetryAfter, exchangeBusy,
			fmt.Errorf("%w: batch %d shed, retry after %v", ErrBusy, s.id, a.RetryAfter)
	case trace.AnswerFault:
		if a.Reset {
			// The server restarted its codec; any decoder tracking this
			// stream must restart with it.
			s.epoch.Add(1)
		}
		return trace.BatchReply{}, 0, exchangeFault, fmt.Errorf("%w: %s", ErrBatchFault, a.Msg)
	}
	reply, err := trace.ParseBatchReplyInto(a.Payload, s.txnSize, s.metaBytes, s.recs)
	if err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, err
	}
	s.recs = reply.Records
	if s.cfg.Trace != nil {
		if s.span == nil {
			s.span = new(obs.Span)
		}
		sp := s.span
		sp.Reset(s.traceID, s.id, uint64(s.sid), s.scheme)
		sp.Observe(obs.StageFrameWrite, writeDur)
		sp.Observe(obs.StageFrameRead, readDur)
		sp.Txns = int(reply.Stats.Transactions)
		sp.DataBits = reply.Stats.DataBits
		sp.BaseOnes, sp.EncOnes = reply.Stats.OnesBefore, reply.Stats.OnesAfter
		sp.BaseToggles, sp.EncToggles = reply.Stats.TogglesBefore, reply.Stats.TogglesAfter
		s.cfg.Trace.Add(sp)
	}
	return reply, 0, exchangeOK, nil
}

// backoff sleeps one retry backoff: exponential with jitter, floored by
// the server's Busy hint when one was given.
func (s *Session) backoff(attempt int, hint time.Duration) {
	d := s.cfg.RetryBackoff << (attempt - 1)
	if d <= 0 || d > s.cfg.RetryBackoffMax {
		d = s.cfg.RetryBackoffMax
	}
	// Jitter into [d/2, d] so synchronized clients don't retry in phase.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	start := time.Now()
	time.Sleep(d)
	s.cfg.Tracer.ObserveStage(s.scheme, obs.StageRetryBackoff, time.Since(start))
}
