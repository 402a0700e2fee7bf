package proxy_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/testutil"
)

// probeAllocBudget is the most one health probe may allocate, proxy and
// bxtd together. It measured about 8.0 KB on loopback since probes dial
// through the client transport (a client.Mux and its session), so the
// budget leaves over 20% headroom. Both ends' frame buffers start Hello-sized (512 B) and grow
// only with the frames received, so a probe that sizes a read buffer for
// a batch (16 KiB or more) at handshake on either side, or keeps a write
// buffer, does not fit.
const probeAllocBudget = 10 << 10

// probeCount scrapes the proxy's probe counter for backend addr.
func probeCount(t *testing.T, metricsAddr, addr string) float64 {
	t.Helper()
	return backendMetric(t, httpGet(t, "http://"+metricsAddr+"/metrics"), "bxtproxy_backend_probes_total", addr)
}

// TestProbeAllocations is the probe allocation gate: a proxy probing an
// in-process bxtd every millisecond, with the bytes the whole process
// allocates over a quarter second divided by the probes the proxy counted
// in it (about 200).
func TestProbeAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few hundred loopback probes")
	}
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv := startBackend(t, backendConfig())
	pcfg := proxyConfig(srv.Addr())
	pcfg.HealthInterval = time.Millisecond
	px := startProxy(t, pcfg)

	// The first probes fill the scheme's caches.
	deadline := time.Now().Add(10 * time.Second)
	for probeCount(t, px.MetricsAddr(), srv.Addr()) < 20 {
		if time.Now().After(deadline) {
			t.Fatal("probes did not start")
		}
		time.Sleep(10 * time.Millisecond)
	}
	p0 := probeCount(t, px.MetricsAddr(), srv.Addr())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	time.Sleep(250 * time.Millisecond)
	runtime.ReadMemStats(&after)
	n := probeCount(t, px.MetricsAddr(), srv.Addr()) - p0
	if n < 50 {
		t.Fatalf("only %.0f probes ran in the measured window", n)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f probes, %.0f B allocated per probe", n, per)
	if per > probeAllocBudget {
		t.Errorf("%.0f B allocated per probe, want at most %d", per, probeAllocBudget)
	}
}

// TestProbePoolSafety runs probes every millisecond while plain and
// mux16 clients, proxied and direct, stream batches and redial every few
// batches, so connections and their frame buffers come and go on every
// tier all the time, and a client's reader moves onto each new
// connection. Every reply must decode back to its source: a buffer reused
// while a goroutine still read it, or one carrying the previous
// connection's bytes, breaks a frame or a record. Run it under -race.
func TestProbePoolSafety(t *testing.T) {
	bcfg := backendConfig()
	srv := startBackend(t, bcfg)
	pcfg := proxyConfig(srv.Addr())
	pcfg.HealthInterval = time.Millisecond
	px := startProxy(t, pcfg)
	p0 := probeCount(t, px.MetricsAddr(), srv.Addr())

	rounds, batches := 8, 16
	if testing.Short() {
		rounds = 3
	}
	var wg sync.WaitGroup
	worker := func(name string, seed int64, round func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				if err := round(rng); err != nil {
					t.Errorf("%s round %d: %v", name, r, err)
					return
				}
			}
		}()
	}
	// plainRound dials one client, streams a few batches and closes it.
	plainRound := func(addr string) func(*rand.Rand) error {
		return func(rng *rand.Rand) error {
			c, err := client.Dial(addr, "universal", 32)
			if err != nil {
				return err
			}
			defer c.Close()
			dec, err := scheme.New("universal")
			if err != nil {
				return err
			}
			epoch := c.Epoch()
			for b := 0; b < batches; b++ {
				if err := checkedBatch(c, dec, &epoch, makeTxns(rng, 256, 32)); err != nil {
					return fmt.Errorf("batch %d: %w", b, err)
				}
			}
			return nil
		}
	}
	// muxRound opens the mux16 stream mix on one connection, sends a few
	// batches on every stream and closes the connection.
	muxRound := func(addr string) func(*rand.Rand) error {
		return func(rng *rand.Rand) error {
			m, err := client.NewMux(addr, client.Config{})
			if err != nil {
				return err
			}
			defer m.Close()
			type muxStream struct {
				s     *client.Session
				dec   core.Codec
				epoch uint64
			}
			streams := make([]*muxStream, 16)
			for i := range streams {
				name := "basexor"
				if i%4 == 3 {
					name = "bdenc"
				}
				s, err := m.Open(name, 32)
				if err != nil {
					return fmt.Errorf("Open(%s): %w", name, err)
				}
				dec, err := scheme.New(name)
				if err != nil {
					return err
				}
				streams[i] = &muxStream{s: s, dec: dec, epoch: s.Epoch()}
			}
			for b := 0; b < batches; b++ {
				for i, ms := range streams {
					if err := checkedBatch(ms.s, ms.dec, &ms.epoch, makeTxns(rng, 64, 32)); err != nil {
						return fmt.Errorf("stream %d batch %d: %w", i, b, err)
					}
				}
			}
			return nil
		}
	}
	worker("proxied-a", 1, plainRound(px.Addr()))
	worker("proxied-b", 2, plainRound(px.Addr()))
	worker("direct", 3, plainRound(srv.Addr()))
	worker("mux16-proxied", 4, muxRound(px.Addr()))
	worker("mux16", 5, muxRound(srv.Addr()))
	wg.Wait()

	if n := probeCount(t, px.MetricsAddr(), srv.Addr()) - p0; n < 10 {
		t.Errorf("only %.0f probes ran alongside the traffic, want many", n)
	}
}
