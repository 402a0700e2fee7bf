// Package client is the Go client for bxtd, the Base+XOR transcoding
// gateway: it opens a session for one scheme and transaction size, streams
// transaction batches, and returns the gateway's encoded records and
// per-batch activity/energy accounting.
//
// Fault tolerance: every batch carries the BXTP envelope (batch id, CRC-32C
// and trace id), so a corrupted request or reply is detected instead of
// decoded into garbage. When Config.MaxRetries is set, Transcode
// transparently retries recoverable failures — Busy sheds (waiting out the
// server's hint), BatchError replies, and broken connections (redialing
// with exponential backoff) — and replies are matched to the in-flight
// batch id so a retry is never double-applied. Callers running stateful
// schemes must watch Epoch: whenever it changes, the server-side codec
// restarted, and the caller's decoder must be reset before decoding the
// next reply.
//
// One transport carries every session: a Client is stream 0 of a Mux of its
// own. A session awaiting a reply reads the connection itself while no
// sibling holds the read role; its own reply comes back in place, and a
// frame for another stream is copied into that stream's inbox (mux.go).
// Session.Exchange, one whole frame out and its answer back with no retry
// or redial, is the step Transcode is built on; a relay such as bxtproxy
// drives it directly on sessions Mux.Stream registers.
package client

import (
	"context"
	"errors"
	"net"
	"time"

	"github.com/hpca18/bxt/internal/obs"
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
	// DialTimeout bounds connection establishment, dial and handshake
	// together (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds each frame write and each wait for an answer
	// (default 30s).
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
	// Trace, when non-nil, records one client-side span per successful
	// Transcode (frame_write and frame_read stages plus the reply's wire
	// accounting) into the given ring. The span carries the batch's
	// end-to-end trace id — the same id the gateway and any proxy record
	// their legs under — so one LastTraceID value correlates all three
	// /debug/trace surfaces.
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
	if c.Dialer == nil {
		d := net.Dialer{Timeout: c.DialTimeout}
		c.Dialer = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return c
}

// RetryStats counts the fault-recovery work a client has done.
type RetryStats struct {
	// Retries is the number of re-attempted batch exchanges.
	Retries uint64 `json:"retries"`
	// Reconnects is the number of successful redials this session's
	// attempts drove (each one implies a fresh server-side codec, so
	// Epoch advanced).
	Reconnects uint64 `json:"reconnects"`
	// Busy counts Busy sheds received; BatchErrors counts BatchError
	// replies received.
	Busy        uint64 `json:"busy"`
	BatchErrors uint64 `json:"batch_errors"`
}

// Client is one bxtd session: stream 0 of a Mux of its own, which it is
// the only session on. Its Transcode, accessors and recovery are
// Session's. It is not safe for concurrent use; open one client per
// goroutine.
type Client struct{ *Session }

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
// of ctx and cfg.DialTimeout bounds both), closing the socket rather than
// leaking it. The context does not govern the lifetime of the established
// session.
func DialContext(ctx context.Context, addr, scheme string, txnSize int, cfg Config) (*Client, error) {
	s, err := newMux(addr, cfg).open(ctx, scheme, txnSize)
	if err != nil {
		return nil, err
	}
	return &Client{s}, nil
}

// Close tears the session and its connection down.
func (c *Client) Close() error { return c.m.Close() }
