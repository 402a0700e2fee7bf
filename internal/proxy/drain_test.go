package proxy_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/testutil"
)

// httpPost issues a POST with no body and returns the status code and
// response body.
func httpPost(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, httpBody(t, resp)
}

func httpBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	b := make([]byte, 512)
	n, _ := resp.Body.Read(b)
	return string(b[:n])
}

// TestBackendDrainZeroDowntime is the rollout proof: pinned bdenc sessions
// stream through a three-backend proxy while the backend carrying their
// pins is administratively drained. Routing must move off it, the codec
// state must live-migrate with the pins, and the clients must never
// notice: zero epoch bumps, zero codec resets, every record still decoding
// against a decoder that was never Reset.
func TestBackendDrainZeroDowntime(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const nClients = 3
	const batchSize = 16

	bcfg := backendConfig()
	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, startBackend(t, bcfg).Addr())
	}
	px := startProxy(t, proxyConfig(addrs...))
	metricsURL := "http://" + px.MetricsAddr() + "/metrics"

	type sess struct {
		c   *client.Client
		dec core.Codec
		rng *rand.Rand
	}
	var sessions []sess
	for i := 0; i < nClients; i++ {
		c, err := client.DialConfig(px.Addr(), "bdenc", 32, retryClient())
		if err != nil {
			t.Fatalf("client %d: DialConfig: %v", i, err)
		}
		t.Cleanup(func() { c.Close() })
		sessions = append(sessions, sess{c, buildDecoder(t, "bdenc"), rand.New(rand.NewSource(int64(500 + i)))})
	}
	for _, s := range sessions {
		if bumps := verifySession(t, s.c, s.dec, s.rng, 6, batchSize); bumps != 0 {
			t.Fatalf("epoch bumped %d times before the drain", bumps)
		}
	}

	// Drain the backend carrying the most pins. At least one exists: three
	// pinned sessions over three backends.
	exp := httpGet(t, metricsURL)
	var victim string
	best := 0.0
	for _, a := range addrs {
		if got := backendMetric(t, exp, "bxtproxy_backend_pinned_sessions", a); got > best {
			best, victim = got, a
		}
	}
	if best < 1 {
		t.Fatal("no backend carries a pinned session")
	}
	code, body := httpPost(t, "http://"+px.MetricsAddr()+"/drain?backend="+victim)
	if code != http.StatusOK {
		t.Fatalf("POST /drain = %d %q, want 200", code, body)
	}

	// The pinned sessions keep streaming: their next batch live-migrates
	// the codec state off the draining backend with no client-visible
	// fault. The decoders are never Reset, so any repository divergence
	// fails the decode comparison inside verifySession.
	for i, s := range sessions {
		if bumps := verifySession(t, s.c, s.dec, s.rng, 6, batchSize); bumps != 0 {
			t.Fatalf("session %d: epoch bumped %d times across the drain, want 0", i, bumps)
		}
	}

	exp = httpGet(t, metricsURL)
	if got := backendMetric(t, exp, "bxtproxy_backend_draining", victim); got != 1 {
		t.Errorf("bxtproxy_backend_draining{%s} = %v, want 1", victim, got)
	}
	if got := backendMetric(t, exp, "bxtproxy_backend_pinned_sessions", victim); got != 0 {
		t.Errorf("drained backend still carries %v pinned sessions", got)
	}
	if got := metricValue(t, exp, `bxtproxy_state_transfers_total{outcome="ok"}`); got < best {
		t.Errorf("ok state transfers = %v, want >= %v (one per displaced pin)", got, best)
	}
	if got := metricValue(t, exp, "bxtproxy_repins_total"); got < best {
		t.Errorf("bxtproxy_repins_total = %v, want >= %v", got, best)
	}
	if got := metricValue(t, exp, "bxtproxy_batch_error_converted_total"); got != 0 {
		t.Errorf("batch_error_converted_total = %v, want 0 (drain must be invisible to clients)", got)
	}

	// New pinned sessions avoid the draining backend too.
	c, err := client.DialConfig(px.Addr(), "bdenc", 32, retryClient())
	if err != nil {
		t.Fatalf("post-drain DialConfig: %v", err)
	}
	defer c.Close()
	verifySession(t, c, buildDecoder(t, "bdenc"), rand.New(rand.NewSource(900)), 2, batchSize)
	exp = httpGet(t, metricsURL)
	if got := backendMetric(t, exp, "bxtproxy_backend_pinned_sessions", victim); got != 0 {
		t.Errorf("draining backend accepted a new pin (%v pinned)", got)
	}
}

// TestProxyDrainEndpointValidation pins the admin endpoint's error
// contract: wrong method, missing parameter, unknown backend.
func TestProxyDrainEndpointValidation(t *testing.T) {
	bcfg := backendConfig()
	addr := startBackend(t, bcfg).Addr()
	px := startProxy(t, proxyConfig(addr))
	base := "http://" + px.MetricsAddr() + "/drain"

	resp, err := http.Get(base + "?backend=" + addr)
	if err != nil {
		t.Fatalf("GET /drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /drain = %d, want 405", resp.StatusCode)
	}

	if code, _ := httpPost(t, base); code != http.StatusBadRequest {
		t.Errorf("POST /drain without backend = %d, want 400", code)
	}
	if code, _ := httpPost(t, base+"?backend=10.1.2.3:9999"); code != http.StatusNotFound {
		t.Errorf("POST /drain unknown backend = %d, want 404", code)
	}
	if code, body := httpPost(t, fmt.Sprintf("%s?backend=%s", base, addr)); code != http.StatusOK || body != "draining\n" {
		t.Errorf("POST /drain = %d %q, want 200 \"draining\"", code, body)
	}
	exp := httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
	if got := backendMetric(t, exp, "bxtproxy_backend_draining", addr); got != 1 {
		t.Errorf("bxtproxy_backend_draining = %v, want 1", got)
	}
}
