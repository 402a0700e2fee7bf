// Package client is the Go client for bxtd, the Base+XOR transcoding
// gateway: it opens a session for one scheme and transaction size, streams
// transaction batches, and returns the gateway's encoded records and
// per-batch activity/energy accounting.
//
// Fault tolerance: every batch carries a protocol v2 envelope (batch id +
// CRC-32C), so a corrupted request or reply is detected instead of decoded
// into garbage. When Config.MaxRetries is set, Transcode transparently
// retries recoverable failures — Busy sheds (waiting out the server's
// hint), BatchError replies, and broken connections (redialing with
// exponential backoff) — and replies are matched to the in-flight batch id
// so a retry is never double-applied. Callers running stateful schemes
// must watch Epoch: whenever it changes, the server-side codec restarted,
// and the caller's decoder must be reset before decoding the next reply.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// ErrServer wraps error messages returned by the gateway.
var ErrServer = errors.New("client: server error")

// ErrBusy wraps a Busy reply: the gateway shed the batch under load and
// the batch may be retried after the returned hint.
var ErrBusy = errors.New("client: server busy")

// ErrBatchFault wraps a BatchError reply: the gateway rejected this batch
// (malformed, corrupt, or a codec failure) but kept the session alive.
var ErrBatchFault = errors.New("client: batch rejected")

// Config tunes a client connection. The zero value selects the defaults.
type Config struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds each frame read or write (default 30s).
	IOTimeout time.Duration
	// Tracer, when non-nil, receives the client-side stage timings of
	// every Transcode call: obs.StageFrameWrite for marshalling and
	// sending the batch, obs.StageFrameRead for awaiting and reading the
	// reply, plus obs.StageRetryBackoff and obs.StageReconnect on the
	// fault-recovery paths. The same stage vocabulary the gateway
	// exposes, seen from the other end of the wire.
	Tracer obs.Tracer
	// MaxRetries bounds how many additional attempts one Transcode call
	// makes after a recoverable failure (Busy shed, BatchError reply, or
	// broken connection). The default 0 disables retries entirely: the
	// first failure surfaces to the caller.
	MaxRetries int
	// RetryBackoff is the first retry's backoff; it doubles per attempt
	// with jitter up to RetryBackoffMax (defaults 25ms and 1s). A Busy
	// reply's retry-after hint overrides a shorter backoff.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Dialer, when non-nil, replaces the default TCP dialer for both the
	// initial dial and retry reconnects. Fault injectors and proxies
	// hook in here.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// Protocol caps the BXTP revision the client requests (default: the
	// current trace.ProtocolVersion). The server may negotiate further
	// down; the session then runs the negotiated revision's wire
	// semantics — a v1 session carries no batch envelope, cannot be shed
	// with Busy, and treats any batch failure as fatal. Version reports
	// what was agreed.
	Protocol uint8
	// Trace, when non-nil, records one client-side span per successful
	// Transcode (frame_write and frame_read stages plus the reply's wire
	// accounting) into the given ring. On protocol v3 sessions the span
	// carries the batch's end-to-end trace id — the same id the gateway
	// and any proxy record their legs under — so one LastTraceID value
	// correlates all three /debug/trace surfaces.
	Trace *obs.TraceRing
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.Tracer == nil {
		c.Tracer = obs.NopTracer{}
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.RetryBackoffMax < c.RetryBackoff {
		c.RetryBackoffMax = time.Second
	}
	if c.Protocol < trace.MinProtocolVersion || c.Protocol > trace.ProtocolVersion {
		c.Protocol = trace.ProtocolVersion
	}
	return c
}

// RetryStats counts the fault-recovery work a client has done.
type RetryStats struct {
	// Retries is the number of re-attempted batch exchanges.
	Retries uint64 `json:"retries"`
	// Reconnects is the number of successful redials (each one implies
	// a fresh server-side codec, so Epoch advanced).
	Reconnects uint64 `json:"reconnects"`
	// Busy counts Busy sheds received; BatchErrors counts BatchError
	// replies received.
	Busy        uint64 `json:"busy"`
	BatchErrors uint64 `json:"batch_errors"`
}

// Client is one bxtd session. It is not safe for concurrent use; open one
// client per goroutine.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	cfg  Config
	addr string

	scheme     string
	txnSize    int
	metaBits   int
	metaBytes  int
	batchLimit int

	// readDLAt/writeDLAt record when each connection deadline was last
	// armed; the hot exchange path re-arms the kernel timer only once a
	// quarter of IOTimeout has elapsed, keeping the effective limit within
	// [3/4·IOTimeout, IOTimeout] without a timer update per batch.
	readDLAt  time.Time
	writeDLAt time.Time
	// version is the negotiated protocol revision: the configured cap, or
	// lower if the server negotiated down in HelloOK.
	version uint8
	// frames is the reply frame read buffer; a returned reply's records
	// alias it.
	frames trace.FrameBuffer
	// bbuf and recs are reused across Transcode calls so a steady-state
	// streaming client allocates nothing per batch.
	bbuf []byte
	recs []trace.EncodedRecord

	// id numbers outgoing batches; replies are matched against it so a
	// retry can never be double-applied.
	id uint64
	// traceID is the current batch's end-to-end trace id: drawn fresh
	// (and nonzero) per Transcode call, stable across that call's
	// retries so every attempt of one logical batch shares one trace.
	// Carried on the wire only by protocol v3 sessions.
	traceID uint64
	// epoch advances whenever the server-side codec restarted: on every
	// reconnect (a new session starts a fresh codec) and on a BatchError
	// carrying the reset flag. Stateful-scheme callers reset their
	// decoder when Epoch changes.
	epoch uint64
	stats RetryStats
}

// Dial connects to a gateway and opens a session running the named scheme
// over txnSize-byte transactions, with default timeouts.
func Dial(addr, scheme string, txnSize int) (*Client, error) {
	return DialConfig(addr, scheme, txnSize, Config{})
}

// DialConfig is Dial with explicit configuration.
func DialConfig(addr, scheme string, txnSize int, cfg Config) (*Client, error) {
	return DialContext(context.Background(), addr, scheme, txnSize, cfg)
}

// DialContext is DialConfig with cancelable connection establishment: a
// canceled or expired ctx aborts the dial and the handshake (the shorter
// of ctx and cfg.DialTimeout applies to the dial), closing the socket
// rather than leaking it. The context does not govern the lifetime of the
// established session.
func DialContext(ctx context.Context, addr, scheme string, txnSize int, cfg Config) (*Client, error) {
	c := &Client{
		cfg:     cfg.withDefaults(),
		addr:    addr,
		scheme:  scheme,
		txnSize: txnSize,
	}
	if err := c.connect(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials and handshakes one session onto c. On any failure —
// including ctx canceling mid-handshake — the socket is closed before
// connect returns, never leaked.
func (c *Client) connect(ctx context.Context) error {
	dial := c.cfg.Dialer
	if dial == nil {
		d := net.Dialer{Timeout: c.cfg.DialTimeout}
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, c.addr)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	// The dialer honors ctx, but the handshake I/O below does not by
	// itself: closing the socket on cancellation fails that I/O promptly
	// and guarantees no leaked connection either way.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	c.conn = conn
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 64<<10)
		c.bw = bufio.NewWriterSize(conn, 64<<10)
	} else {
		c.br.Reset(conn)
		c.bw.Reset(conn)
	}
	if err := c.handshake(ctx); err != nil {
		conn.Close()
		c.conn = nil
		if ctx.Err() != nil {
			return fmt.Errorf("client: handshake: %w", ctx.Err())
		}
		return err
	}
	if !stop() {
		// ctx fired during the handshake and already closed the socket.
		c.conn = nil
		return fmt.Errorf("client: handshake: %w", ctx.Err())
	}
	return nil
}

func (c *Client) handshake(ctx context.Context) error {
	body, err := trace.MarshalHello(trace.Hello{
		Version: c.cfg.Protocol,
		TxnSize: c.txnSize,
		Scheme:  c.scheme,
	})
	if err != nil {
		return err
	}
	c.conn.SetWriteDeadline(c.handshakeDeadline(ctx))
	if err := trace.WriteFrame(c.bw, trace.FrameHello, body); err != nil {
		return fmt.Errorf("client: sending hello: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("client: sending hello: %w", err)
	}
	c.conn.SetReadDeadline(c.handshakeDeadline(ctx))
	ft, rbody, err := c.frames.ReadFrame(c.br)
	if err != nil {
		return fmt.Errorf("client: reading hello-ok: %w", err)
	}
	switch ft {
	case trace.FrameHelloOK:
		ok, err := trace.ParseHelloOK(rbody)
		if err != nil {
			return err
		}
		if ok.Version < trace.MinProtocolVersion || ok.Version > c.cfg.Protocol {
			return fmt.Errorf("%w: server negotiated protocol version %d, requested <= %d",
				ErrServer, ok.Version, c.cfg.Protocol)
		}
		c.version = ok.Version
		c.metaBits = ok.MetaBits
		c.metaBytes = (ok.MetaBits + 7) / 8
		c.batchLimit = ok.BatchLimit
		return nil
	case trace.FrameError:
		return fmt.Errorf("%w: %s", ErrServer, rbody)
	default:
		return fmt.Errorf("%w: unexpected frame type %#x in handshake", trace.ErrBadFrame, ft)
	}
}

// handshakeDeadline is the earlier of ctx's deadline and IOTimeout from
// now, so a context-bounded DialContext bounds the handshake too.
func (c *Client) handshakeDeadline(ctx context.Context) time.Time {
	dl := time.Now().Add(c.cfg.IOTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	return dl
}

func (c *Client) readFrame() (trace.FrameType, []byte, error) {
	if now := time.Now(); now.Sub(c.readDLAt) > c.cfg.IOTimeout>>2 {
		c.conn.SetReadDeadline(now.Add(c.cfg.IOTimeout))
		c.readDLAt = now
	}
	return c.frames.ReadFrame(c.br)
}

// Scheme returns the session's scheme name.
func (c *Client) Scheme() string { return c.scheme }

// TxnSize returns the session's transaction size in bytes.
func (c *Client) TxnSize() int { return c.txnSize }

// MetaBits returns the scheme's side-band width per transaction as
// negotiated in the handshake.
func (c *Client) MetaBits() int { return c.metaBits }

// BatchLimit returns the server's maximum batch size.
func (c *Client) BatchLimit() int { return c.batchLimit }

// Version returns the negotiated BXTP revision: Config.Protocol, or lower
// if the server negotiated the session down in HelloOK.
func (c *Client) Version() uint8 { return c.version }

// Epoch returns the codec epoch: it advances every time the server-side
// codec restarted (reconnect, or a BatchError with the reset flag).
// Callers decoding a stateful scheme must reset their decoder whenever
// Epoch differs from the value they last observed.
func (c *Client) Epoch() uint64 { return c.epoch }

// RetryStats returns the fault-recovery counters accumulated so far.
func (c *Client) RetryStats() RetryStats { return c.stats }

// LastTraceID returns the trace id of the most recent Transcode call
// (zero before the first call). On protocol v3 sessions the same id
// labels the gateway's and any proxy's spans for that batch, so it is
// the key to query their /debug/trace surfaces with.
func (c *Client) LastTraceID() uint64 { return c.traceID }

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
	exchangeFault               // BatchError: retryable on the same connection
	exchangeBroken              // the session is unusable; redial before retrying
	exchangeCaller              // caller error (bad batch); never retried
)

// Transcode sends one batch and waits for its reply, retrying recoverable
// failures up to Config.MaxRetries times. Every transaction must carry
// TxnSize bytes and len(txns) must not exceed BatchLimit. The returned
// reply's record slices are only valid until the next call.
func (c *Client) Transcode(txns []trace.Transaction) (trace.BatchReply, error) {
	if len(txns) == 0 {
		return trace.BatchReply{}, fmt.Errorf("%w: empty batch", trace.ErrBadFrame)
	}
	if c.batchLimit > 0 && len(txns) > c.batchLimit {
		return trace.BatchReply{}, fmt.Errorf("%w: batch of %d exceeds server limit %d", trace.ErrBadFrame, len(txns), c.batchLimit)
	}
	c.id++
	id := c.id
	// One trace id per logical batch: retries of this call reuse it, so
	// every attempt's spans line up under a single trace.
	c.traceID = newTraceID()
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
			c.backoffWait(attempt, hint)
			hint = 0
		}
		if c.conn == nil {
			if err := c.redial(); err != nil {
				lastErr = err
				continue
			}
		}
		reply, h, kind, err := c.exchange(id, txns)
		switch kind {
		case exchangeOK:
			return reply, nil
		case exchangeCaller:
			return trace.BatchReply{}, err
		case exchangeBusy:
			c.stats.Busy++
			hint = h
		case exchangeFault:
			c.stats.BatchErrors++
		case exchangeBroken:
			c.dropConn()
		}
		lastErr = err
	}
	return trace.BatchReply{}, lastErr
}

// exchange performs one send/receive of batch id. It returns the reply,
// the server's retry-after hint (Busy only), the outcome class, and the
// error for every class but exchangeOK.
func (c *Client) exchange(id uint64, txns []trace.Transaction) (trace.BatchReply, time.Duration, exchangeKind, error) {
	writeStart := time.Now()
	var body []byte
	var err error
	// On a v4 session every frame leads with the stream id (0 for a plain
	// single-stream client); the envelope and its CRC cover only the
	// v3-encoded remainder.
	buf := c.bbuf[:0]
	envAt := 0
	if c.version >= 4 {
		buf = trace.AppendStreamID(buf, 0)
		envAt = 4
	}
	switch {
	case c.version >= 3:
		body, err = trace.AppendBatch(trace.AppendTraceEnvelope(buf, id, c.traceID), txns, c.txnSize)
	case c.version >= 2:
		body, err = trace.AppendBatch(trace.AppendBatchEnvelope(buf, id), txns, c.txnSize)
	default:
		// v1 framing: no batch envelope on either direction.
		body, err = trace.AppendBatch(buf, txns, c.txnSize)
	}
	if err != nil {
		return trace.BatchReply{}, 0, exchangeCaller, err
	}
	c.bbuf = body[:0]
	if c.version >= 2 {
		if err := trace.SealBatchEnvelope(body[envAt:]); err != nil {
			return trace.BatchReply{}, 0, exchangeCaller, err // unreachable: envelope present
		}
	}
	if writeStart.Sub(c.writeDLAt) > c.cfg.IOTimeout>>2 {
		c.conn.SetWriteDeadline(writeStart.Add(c.cfg.IOTimeout))
		c.writeDLAt = writeStart
	}
	if err := trace.WriteFrame(c.bw, trace.FrameBatch, body); err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: sending batch: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: sending batch: %w", err)
	}
	readStart := time.Now()
	writeDur := readStart.Sub(writeStart)
	c.cfg.Tracer.ObserveStage(c.scheme, obs.StageFrameWrite, writeDur)
	ft, rbody, err := c.readFrame()
	if err != nil {
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: reading reply: %w", err)
	}
	if c.version >= 4 {
		// Strip and verify the stream-id prefix. A StreamClosed here means
		// the server retired stream 0 out from under us (fault budget); for
		// a single-stream client that is the end of the session.
		if ft == trace.FrameStreamClosed {
			sid, msg, perr := trace.ParseStreamClosed(rbody)
			if perr != nil {
				return trace.BatchReply{}, 0, exchangeBroken, perr
			}
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("%w: stream %d closed by server: %s", ErrServer, sid, msg)
		}
		var sid uint32
		sid, rbody, err = trace.SplitStreamID(rbody)
		if err != nil {
			return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: reading reply: %w", err)
		}
		if sid != 0 {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: reply carries stream %d, expected 0 (stream desynchronized)", sid)
		}
	}
	readDur := time.Since(readStart)
	c.cfg.Tracer.ObserveStage(c.scheme, obs.StageFrameRead, readDur)
	switch ft {
	case trace.FrameBatchReply:
		payload := rbody
		if c.version >= 2 {
			var rid uint64
			var p []byte
			if c.version >= 3 {
				var rtrace uint64
				rid, rtrace, p, err = trace.OpenTraceEnvelope(rbody)
				if err == nil && rtrace != c.traceID {
					return trace.BatchReply{}, 0, exchangeBroken,
						fmt.Errorf("client: reply carries trace %#x, expected %#x (stream desynchronized)", rtrace, c.traceID)
				}
			} else {
				rid, p, err = trace.OpenBatchEnvelope(rbody)
			}
			if err != nil {
				// A CRC failure here is wire damage on the reply path; the
				// server already applied the batch, so the session's codec
				// stream is unusable — reconnect for a clean epoch.
				return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("client: reply for batch %d: %w", id, err)
			}
			if rid != id {
				return trace.BatchReply{}, 0, exchangeBroken,
					fmt.Errorf("client: reply names batch %d, expected %d (stream desynchronized)", rid, id)
			}
			payload = p
		}
		reply, err := trace.ParseBatchReplyInto(payload, c.txnSize, c.metaBytes, c.recs)
		if err != nil {
			return trace.BatchReply{}, 0, exchangeBroken, err
		}
		c.recs = reply.Records
		if c.cfg.Trace != nil {
			var sp obs.Span
			sp.Reset(c.traceID, id, 0, c.scheme)
			sp.Observe(obs.StageFrameWrite, writeDur)
			sp.Observe(obs.StageFrameRead, readDur)
			sp.Txns = int(reply.Stats.Transactions)
			sp.DataBits = reply.Stats.DataBits
			sp.BaseOnes, sp.EncOnes = reply.Stats.OnesBefore, reply.Stats.OnesAfter
			sp.BaseToggles, sp.EncToggles = reply.Stats.TogglesBefore, reply.Stats.TogglesAfter
			c.cfg.Trace.Add(&sp)
		}
		return reply, 0, exchangeOK, nil
	case trace.FrameBusy:
		if c.version < 2 {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("%w: busy frame on a v1 session", trace.ErrBadFrame)
		}
		rid, after, err := trace.ParseBusy(rbody)
		if err != nil || rid != id {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: malformed busy reply for batch %d (id %d, err %v)", id, rid, err)
		}
		return trace.BatchReply{}, after, exchangeBusy,
			fmt.Errorf("%w: batch %d shed, retry after %v", ErrBusy, id, after)
	case trace.FrameBatchError:
		if c.version < 2 {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("%w: batch-error frame on a v1 session", trace.ErrBadFrame)
		}
		rid, reset, msg, err := trace.ParseBatchError(rbody)
		if err != nil || rid != id {
			return trace.BatchReply{}, 0, exchangeBroken,
				fmt.Errorf("client: malformed batch-error reply for batch %d (id %d, err %v)", id, rid, err)
		}
		if reset {
			// The server restarted its codec; any decoder tracking this
			// session's stream must restart with it.
			c.epoch++
		}
		return trace.BatchReply{}, 0, exchangeFault, fmt.Errorf("%w: %s", ErrBatchFault, msg)
	case trace.FrameError:
		// A session-fatal server error: the server is closing the
		// connection behind this frame.
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("%w: %s", ErrServer, rbody)
	default:
		return trace.BatchReply{}, 0, exchangeBroken, fmt.Errorf("%w: unexpected frame type %#x", trace.ErrBadFrame, ft)
	}
}

// dropConn discards the broken session. The next attempt redials; the
// epoch advances now so even a caller that sees only the final error
// knows the codec stream it was tracking is gone.
func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.epoch++
}

// redial opens a replacement session for a dropped connection.
func (c *Client) redial() error {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.DialTimeout)
	defer cancel()
	if err := c.connect(ctx); err != nil {
		return err
	}
	c.stats.Reconnects++
	c.cfg.Tracer.ObserveStage(c.scheme, obs.StageReconnect, time.Since(start))
	return nil
}

// backoffWait sleeps the retry backoff: exponential with jitter, floored
// by the server's Busy hint when one was given.
func (c *Client) backoffWait(attempt int, hint time.Duration) {
	d := c.cfg.RetryBackoff << (attempt - 1)
	if d <= 0 || d > c.cfg.RetryBackoffMax {
		d = c.cfg.RetryBackoffMax
	}
	// Jitter into [d/2, d] so synchronized clients don't retry in phase.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	start := time.Now()
	time.Sleep(d)
	c.cfg.Tracer.ObserveStage(c.scheme, obs.StageRetryBackoff, time.Since(start))
}

// Close tears the session down.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
