package proxy_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/testutil"
)

// TestIdleUpstreamIsNotABackendFailure pins how the proxy reads a backend
// that closed an idle upstream connection: bxtd answers the next request
// on it with an Error frame, which drops that one upstream but never
// counts against the backend. A batch on the idle stream converts and
// retries through, a newly opened stream redials the same backend, and
// bxtproxy_backend_failures_total stays 0 either way. Probes are held off
// so only live traffic can touch the counter.
func TestIdleUpstreamIsNotABackendFailure(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const idle = 300 * time.Millisecond
	start := func(t *testing.T) (backendAddr, proxyAddr, metricsURL string, stop func()) {
		bcfg := backendConfig()
		bcfg.ReadTimeout = idle
		srv := startBackend(t, bcfg)
		pcfg := proxyConfig(srv.Addr())
		pcfg.HealthInterval = time.Hour
		px := startProxy(t, pcfg)
		return srv.Addr(), px.Addr(), "http://" + px.MetricsAddr() + "/metrics", func() { srv.Close() }
	}
	failures := func(t *testing.T, metricsURL, addr string) float64 {
		t.Helper()
		return backendMetric(t, httpGet(t, metricsURL), "bxtproxy_backend_failures_total", addr)
	}
	rng := rand.New(rand.NewSource(5))

	t.Run("batch", func(t *testing.T) {
		addr, pxAddr, metricsURL, _ := start(t)
		c, err := client.DialConfig(pxAddr, "basexor", 32, retryClient())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		if _, err := c.Transcode(makeTxns(rng, 8, 32)); err != nil {
			t.Fatalf("first batch: %v", err)
		}
		time.Sleep(idle + idle/2)
		if _, err := c.Transcode(makeTxns(rng, 8, 32)); err != nil {
			t.Fatalf("batch after the backend idled the upstream out: %v", err)
		}
		if c.RetryStats().Busy == 0 {
			t.Error("the batch after the idle spell was not converted; the backend never ended the upstream")
		}
		if got := failures(t, metricsURL, addr); got != 0 {
			t.Errorf("bxtproxy_backend_failures_total = %v after an idle upstream, want 0", got)
		}
	})

	t.Run("open", func(t *testing.T) {
		addr, pxAddr, metricsURL, stopBackend := start(t)
		m, err := client.NewMux(pxAddr, retryClient())
		if err != nil {
			t.Fatalf("NewMux: %v", err)
		}
		defer m.Close()
		s0, err := m.Open("basexor", 32)
		if err != nil {
			t.Fatalf("open stream 0: %v", err)
		}
		if _, err := s0.Transcode(makeTxns(rng, 8, 32)); err != nil {
			t.Fatalf("first batch: %v", err)
		}
		time.Sleep(idle + idle/2)
		s1, err := m.Open("basexor", 32)
		if err != nil {
			t.Fatalf("open after the backend idled the upstream out: %v", err)
		}
		if _, err := s1.Transcode(makeTxns(rng, 8, 32)); err != nil {
			t.Fatalf("batch on the new stream: %v", err)
		}
		if got := failures(t, metricsURL, addr); got != 0 {
			t.Errorf("bxtproxy_backend_failures_total = %v after an idle upstream, want 0", got)
		}

		// With the backend gone, the proxy refuses the next open, naming
		// the cause once.
		stopBackend()
		_, err = m.Open("basexor", 32)
		if want := "client: server error: stream 2 refused: proxy: no healthy backend"; err == nil || err.Error() != want {
			t.Errorf("open with no backend = %v, want %q", err, want)
		}
	})
}
