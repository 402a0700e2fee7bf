package proxy_test

import (
	"math/rand"
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

// TestSteadyStateZeroAlloc is the per-topology allocation gate: once the
// buffers have grown to the traffic's frame sizes, a batch round trip
// allocates nothing on any hop — client, proxy relay, bxtd — for one
// plain session straight to bxtd or through the proxy, and for a 16-stream
// mux (twelve basexor and four bdenc streams) straight or through the
// proxy.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate drives thousands of loopback batches")
	}
	srv := startBackend(t, backendConfig())
	pcfg := proxyConfig(srv.Addr())
	// Health probes dial and handshake, which allocates; keep them out of
	// the measured window.
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
			rng := rand.New(rand.NewSource(1))
			var transcode func() error
			if tc.mux {
				transcode = muxTranscoder(t, tc.addr, rng, tc.batch)
			} else {
				c, err := client.Dial(tc.addr, "universal", 32)
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
			allocs := testing.AllocsPerRun(allocRuns, run)
			if err != nil {
				t.Fatalf("Transcode: %v", err)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per batch in steady state, want 0", allocs)
			}
		})
	}
}

// muxTranscoder opens the mux16 stream mix on one client.Mux connection
// and returns a function that sends one batch on the next stream in turn.
func muxTranscoder(t *testing.T, addr string, rng *rand.Rand, batch int) func() error {
	t.Helper()
	m, err := client.NewMux(addr, client.Config{})
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
