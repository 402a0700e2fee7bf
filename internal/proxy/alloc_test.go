package proxy_test

import (
	"context"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/trace"
)

// allocRuns is how many batches each topology's allocation gate averages
// over. AllocsPerRun reports the integer mean, so a zero result means
// fewer than one heap allocation per batch across the whole process:
// client, proxy and bxtd goroutines alike.
const allocRuns = 2000

// countingConn counts the Write calls made on a client connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestSteadyStateZeroAlloc is the per-topology allocation and write
// gate: once the buffers have grown to the traffic's frame sizes, a batch
// round trip allocates nothing on any hop — client, proxy relay, bxtd —
// and the client sends each batch frame, header and body, in one Write.
// It covers one plain session straight to bxtd or through the proxy, and
// a 16-stream mux (twelve basexor and four bdenc streams) straight or
// through the proxy. A frame written in pieces shows as a write count
// instead of hiding in timing noise; TestFrameIOPerLeg (internal/serve)
// counts the proxy's and bxtd's legs the same way.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate drives thousands of loopback batches")
	}
	srv := startBackend(t, backendConfig())
	pcfg := proxyConfig(srv.Addr())
	// A health probe makes about 80 small allocations
	// (TestProbeAllocations gates its bytes); keep probes out of the
	// measured window.
	pcfg.HealthInterval = time.Hour
	px := startProxy(t, pcfg)

	for _, tc := range []struct {
		name  string
		addr  string
		mux   bool
		batch int
	}{
		{"direct", srv.Addr(), false, 256},
		{"proxied", px.Addr(), false, 256},
		{"mux16", srv.Addr(), true, 64},
		{"mux16-proxied", px.Addr(), true, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var writes atomic.Int64
			cfg := client.Config{Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
				var d net.Dialer
				conn, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: conn, writes: &writes}, nil
			}}
			rng := rand.New(rand.NewSource(1))
			var transcode func() error
			if tc.mux {
				transcode = muxTranscoder(t, tc.addr, cfg, rng, tc.batch)
			} else {
				c, err := client.DialConfig(tc.addr, "universal", 32, cfg)
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				t.Cleanup(func() { c.Close() })
				txns := makeTxns(rng, tc.batch, 32)
				transcode = func() error {
					_, err := c.Transcode(txns)
					return err
				}
			}
			var err error
			run := func() {
				if e := transcode(); e != nil && err == nil {
					err = e
				}
			}
			for i := 0; i < 200; i++ {
				run()
			}
			before := writes.Load()
			allocs := testing.AllocsPerRun(allocRuns, run) // allocRuns+1 batches
			if err != nil {
				t.Fatalf("Transcode: %v", err)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per batch in steady state, want 0", allocs)
			}
			if n := writes.Load() - before; n > allocRuns+1 {
				t.Errorf("%d client writes for %d batches, want at most one per batch", n, allocRuns+1)
			}
		})
	}
}

// muxTranscoder opens the mux16 stream mix on one client.Mux connection
// dialled with cfg and returns a function that sends one batch on the
// next stream in turn.
func muxTranscoder(t *testing.T, addr string, cfg client.Config, rng *rand.Rand, batch int) func() error {
	t.Helper()
	m, err := client.NewMux(addr, cfg)
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	var sessions []*client.Session
	var txns [][]trace.Transaction
	for i := 0; i < 16; i++ {
		name := "basexor"
		if i%4 == 3 {
			name = "bdenc"
		}
		s, err := m.Open(name, 32)
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		sessions = append(sessions, s)
		txns = append(txns, makeTxns(rng, batch, 32))
	}
	next := 0
	return func() error {
		i := next % len(sessions)
		next++
		_, err := sessions[i].Transcode(txns[i])
		return err
	}
}
