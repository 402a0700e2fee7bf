package serve_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/trace"
)

// tierHost is the lifecycle surface bxtd and bxtproxy both export.
type tierHost interface {
	Start() error
	Addr() string
	MetricsAddr() string
	Shutdown(context.Context) error
	Close() error
}

// tierOpts are the connection-host settings the lifecycle table varies.
type tierOpts struct {
	maxConns     int
	writeTimeout time.Duration
}

func backendConfig() config.Server {
	cfg := config.DefaultServer()
	cfg.ListenAddr, cfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	cfg.LogLevel = "error"
	return cfg
}

func newBxtd(t *testing.T, o tierOpts) tierHost {
	cfg := backendConfig()
	cfg.MaxConns, cfg.WriteTimeout = o.maxConns, o.writeTimeout
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return srv
}

// newBxtproxy fronts one live bxtd backend.
func newBxtproxy(t *testing.T, o tierOpts) tierHost {
	backend, err := server.New(backendConfig())
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := backend.Start(); err != nil {
		t.Fatalf("backend Start: %v", err)
	}
	t.Cleanup(func() { backend.Close() })
	cfg := config.DefaultProxy()
	cfg.ListenAddr, cfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	cfg.Backends = []string{backend.Addr()}
	cfg.LogLevel = "error"
	cfg.MaxConns, cfg.WriteTimeout = o.maxConns, o.writeTimeout
	px, err := proxy.New(cfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	return px
}

var tiers = []struct {
	name  string
	build func(*testing.T, tierOpts) tierHost
}{
	{"bxtd", newBxtd},
	{"bxtproxy", newBxtproxy},
}

// forEachTier runs fn against a fresh, unstarted instance of each tier;
// the instance is closed when the subtest ends.
func forEachTier(t *testing.T, o tierOpts, fn func(t *testing.T, h tierHost)) {
	for _, tc := range tiers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := tc.build(t, o)
			t.Cleanup(func() { h.Close() })
			fn(t, h)
		})
	}
}

func defaultOpts() tierOpts { return tierOpts{maxConns: 16, writeTimeout: 5 * time.Second} }

// TestLifecycleStart pins the listener lifecycle: no address before Start,
// both addresses after it, and a second Start refused.
func TestLifecycleStart(t *testing.T) {
	forEachTier(t, defaultOpts(), func(t *testing.T, h tierHost) {
		if a, m := h.Addr(), h.MetricsAddr(); a != "" || m != "" {
			t.Fatalf("before Start: Addr %q, MetricsAddr %q, want both empty", a, m)
		}
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		if h.Addr() == "" || h.MetricsAddr() == "" {
			t.Fatalf("after Start: Addr %q, MetricsAddr %q, want both bound", h.Addr(), h.MetricsAddr())
		}
		if err := h.Start(); err == nil {
			t.Fatal("second Start succeeded, want error")
		}
	})
}

// TestLifecycleConnectionCap verifies that a session beyond MaxConns is
// refused with an Error frame naming capacity, and that the slot frees
// once the first client closes.
func TestLifecycleConnectionCap(t *testing.T) {
	o := defaultOpts()
	o.maxConns = 1
	forEachTier(t, o, func(t *testing.T, h tierHost) {
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		c1, err := client.Dial(h.Addr(), "universal", 32)
		if err != nil {
			t.Fatalf("Dial 1: %v", err)
		}
		defer c1.Close()
		_, err = client.Dial(h.Addr(), "universal", 32)
		if !errors.Is(err, client.ErrServer) || !strings.Contains(err.Error(), "capacity") {
			t.Fatalf("Dial 2 = %v, want capacity refusal", err)
		}
		c1.Close()
		// The slot frees asynchronously as the session unwinds.
		deadline := time.Now().Add(5 * time.Second)
		for {
			c3, err := client.Dial(h.Addr(), "universal", 32)
			if err == nil {
				c3.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("slot never freed: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestLifecycleShutdownForceClose holds a session mid-batch and lets the
// drain budget expire: Shutdown must force-close the session and return
// context.DeadlineExceeded, long before the session's own write deadline
// would have freed it.
//
// The client pipelines batches and never reads a reply, so the tier's
// reply write blocks once the socket buffers fill, and a blocked write
// is not woken by the drain's read deadlines.
func TestLifecycleShutdownForceClose(t *testing.T) {
	o := defaultOpts()
	o.writeTimeout = 30 * time.Second
	forEachTier(t, o, func(t *testing.T, h tierHost) {
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		conn, err := net.Dial("tcp", h.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		// A small receive window fills after a few replies.
		conn.(*net.TCPConn).SetReadBuffer(16 << 10)
		const txnSize, perBatch = 32, 4096
		hello, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: txnSize, Scheme: "universal"})
		if err != nil {
			t.Fatalf("MarshalHello: %v", err)
		}
		br := bufio.NewReader(conn)
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := trace.WriteFrame(conn, trace.FrameHello, hello); err != nil {
			t.Fatalf("write hello: %v", err)
		}
		if ft, body, err := trace.ReadFrame(br, nil); err != nil || ft != trace.FrameHelloOK {
			t.Fatalf("hello answered with frame %#x (%q), err %v", ft, body, err)
		}
		conn.SetDeadline(time.Time{})

		txns := make([]trace.Transaction, perBatch)
		for i := range txns {
			data := make([]byte, txnSize)
			for j := range data {
				data[j] = byte(i*7 + j)
			}
			txns[i] = trace.Transaction{Addr: uint64(i * txnSize), Data: data}
		}
		var sent atomic.Int64
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for id := uint64(1); ; id++ {
				body := trace.AppendTraceEnvelope(trace.AppendStreamID(nil, 0), id, id)
				body, err := trace.AppendBatch(body, txns, txnSize)
				if err == nil {
					err = trace.SealBatchEnvelope(body[4:])
				}
				if err == nil {
					err = trace.WriteFrame(conn, trace.FrameBatch, body)
				}
				if err != nil {
					return // the tier closed the connection
				}
				sent.Add(1)
			}
		}()

		// Once the writer has made no progress for a while the tier has
		// stopped reading: it is stuck writing a reply nobody reads. The
		// quiet window is long enough for a slow (race-detector) tier to
		// finish the batch it is working on.
		deadline := time.Now().Add(20 * time.Second)
		last, quiet := int64(-1), 0
		for quiet < 10 {
			time.Sleep(50 * time.Millisecond)
			if n := sent.Load(); n > 0 && n == last {
				quiet++
			} else {
				last, quiet = n, 0
			}
			if time.Now().After(deadline) {
				t.Fatalf("writer never stalled (%d batches sent)", last)
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		err = h.Shutdown(ctx)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("Shutdown took %v; the stuck session was not force-closed", took)
		}
		// The force-closed connection ends: the client reads what was
		// already sent, then an error, and its writer fails too.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.Copy(io.Discard, br); err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Fatal("connection still open after Shutdown returned")
			}
		}
		select {
		case <-writerDone:
		case <-time.After(10 * time.Second):
			t.Fatal("client writer still blocked after Shutdown returned")
		}
	})
}
