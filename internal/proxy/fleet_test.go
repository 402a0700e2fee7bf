package proxy_test

import (
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/testutil"
)

// TestFleetAddRemoveBackend exercises the dynamic-fleet tier end to end:
// the proxy starts with one backend, a pinned bdenc session streams
// through it, a second backend joins via POST /backends?add, the first is
// then removed via ?remove — and the pinned session live-migrates its
// codec state onto the newcomer with zero epoch bumps, the client
// connection never noticing the fleet changed under it.
func TestFleetAddRemoveBackend(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	b1 := startBackend(t, bcfg)
	b2 := startBackend(t, bcfg) // alive but not yet in the fleet
	px := startProxy(t, proxyConfig(b1.Addr()))
	base := "http://" + px.MetricsAddr()

	c, err := client.DialConfig(px.Addr(), "bdenc", 32, retryClient())
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	defer c.Close()
	dec := buildDecoder(t, "bdenc")
	rng := rand.New(rand.NewSource(17))
	if bumps := verifySession(t, c, dec, rng, 5, 8); bumps != 0 {
		t.Fatalf("epoch bumps before any fleet change = %d, want 0", bumps)
	}

	// Grow the fleet. The roster endpoint must list both members.
	if code, _ := httpPost(t, base+"/backends?add="+url.QueryEscape(b2.Addr())); code != http.StatusOK {
		t.Fatalf("POST /backends?add = %d, want 200", code)
	}
	roster := httpGet(t, base+"/backends")
	if !strings.Contains(roster, b1.Addr()) || !strings.Contains(roster, b2.Addr()) {
		t.Fatalf("roster after add:\n%s\nwant both %s and %s", roster, b1.Addr(), b2.Addr())
	}
	if code, _ := httpPost(t, base+"/backends?add="+url.QueryEscape(b2.Addr())); code != http.StatusBadRequest {
		t.Fatalf("duplicate add = %d, want 400", code)
	}

	// Shrink it back down to the newcomer. b1 is still alive — exactly the
	// rollout case — so the pinned stream's codec state must live-migrate
	// and the decoder (never Reset) keeps decoding byte-identically.
	if code, _ := httpPost(t, base+"/backends?remove="+url.QueryEscape(b1.Addr())); code != http.StatusOK {
		t.Fatalf("POST /backends?remove = %d, want 200", code)
	}
	roster = httpGet(t, base+"/backends")
	if strings.Contains(roster, b1.Addr()) || !strings.Contains(roster, b2.Addr()) {
		t.Fatalf("roster after remove:\n%s\nwant only %s", roster, b2.Addr())
	}
	if code, _ := httpPost(t, base+"/backends?remove="+url.QueryEscape(b1.Addr())); code != http.StatusNotFound {
		t.Fatalf("removing an unknown backend = %d, want 404", code)
	}

	if bumps := verifySession(t, c, dec, rng, 5, 8); bumps != 0 {
		t.Fatalf("epoch bumps across backend removal = %d, want 0 (state must migrate)", bumps)
	}
	exp := httpGet(t, base+"/metrics")
	if got := metricValue(t, exp, "bxtproxy_repins_total"); got < 1 {
		t.Errorf("bxtproxy_repins_total = %v, want >= 1", got)
	}
	if got := metricValue(t, exp, `bxtproxy_state_transfers_total{outcome="ok"}`); got < 1 {
		t.Errorf("ok state transfers = %v, want >= 1 (removal must live-migrate)", got)
	}
	if got := metricValue(t, exp, "bxtproxy_batch_error_converted_total"); got != 0 {
		t.Errorf("batch_error_converted = %v, want 0 (nothing should surface to the client)", got)
	}
	if got := backendMetric(t, exp, "bxtproxy_backend_batches_total", b2.Addr()); got < 5 {
		t.Errorf("newcomer served %v batches, want >= 5", got)
	}
}
