package main

import (
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/trace"
)

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	cases := []struct {
		name     string
		cum      []float64
		total, q float64
		want     float64
	}{
		// 10 observations below 1ms, 10 between 1ms and 10ms: the median
		// rank (10) lands exactly on the first bound.
		{name: "exact-bound", cum: []float64{10, 20, 20}, total: 20, q: 0.5, want: 0.001},
		// Rank 15 is halfway through the (1ms, 10ms] bucket.
		{name: "interpolated", cum: []float64{10, 20, 20}, total: 20, q: 0.75, want: 0.0055},
		// Observations past the last finite bound report that bound.
		{name: "overflow", cum: []float64{1, 1, 1}, total: 10, q: 0.99, want: 0.1},
		{name: "empty", cum: nil, total: 0, q: 0.5, want: 0},
	}
	for _, tc := range cases {
		b := bounds
		if tc.cum == nil {
			b = nil
		}
		if got := bucketQuantile(b, tc.cum, tc.total, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: bucketQuantile = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestFormatters(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {950, "950"}, {1500, "1.5k"}, {2.5e6, "2.5M"}, {-1, "-"},
	} {
		if got := fmtRate(tc.in); got != tc.want {
			t.Errorf("fmtRate(%g) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if got := fmtSeconds(0.0015); got != "1.5ms" {
		t.Errorf("fmtSeconds(0.0015) = %q, want 1.5ms", got)
	}
}

// TestFleetDashboard is the loopback acceptance test: a real bxtd gateway
// and a bxtproxy tier in front of it serve live traffic, and bxtstat's
// scrape → collect → render pipeline must produce a row for each with the
// right kind, serving state, stage-latency quantiles, and energy columns,
// plus per-poll rate columns on the second poll.
func TestFleetDashboard(t *testing.T) {
	scfg := config.DefaultServer()
	scfg.ListenAddr = "127.0.0.1:0"
	scfg.MetricsAddr = "127.0.0.1:0"
	scfg.LogLevel = "error"
	srv, err := server.New(scfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	pcfg := config.DefaultProxy()
	pcfg.ListenAddr = "127.0.0.1:0"
	pcfg.MetricsAddr = "127.0.0.1:0"
	pcfg.Backends = []string{srv.Addr()}
	pcfg.LogLevel = "error"
	px, err := proxy.New(pcfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	if err := px.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(func() { px.Close() })

	const txnSize = 32
	c, err := client.Dial(px.Addr(), "universal", txnSize)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(7))
	stream := func(batches int) {
		for i := 0; i < batches; i++ {
			txns := make([]trace.Transaction, 64)
			for j := range txns {
				data := make([]byte, txnSize)
				rng.Read(data)
				txns[j] = trace.Transaction{Addr: uint64(j), Kind: trace.Write, Data: data}
			}
			if _, err := c.Transcode(txns); err != nil {
				t.Fatalf("Transcode: %v", err)
			}
		}
	}
	stream(10)

	hc := &http.Client{Timeout: 2 * time.Second}
	fetch := func(target string) ([]obs.MetricPoint, error) { return scrape(hc, target) }

	targets := []string{srv.MetricsAddr(), px.MetricsAddr()}
	// Both tiers' /metrics wait out in-flight reply writes, so one scrape
	// after the client's last reply counts all ten batches.
	t0 := time.Now()
	snaps := collectFleet(targets, fetch, t0)

	if len(snaps) != 2 {
		t.Fatalf("collectFleet returned %d snapshots, want 2", len(snaps))
	}
	gw, pr := snaps[0], snaps[1]
	if gw.Err != nil || pr.Err != nil {
		t.Fatalf("scrape errors: gateway %v, proxy %v", gw.Err, pr.Err)
	}
	if gw.Kind != "bxtd" || pr.Kind != "bxtproxy" {
		t.Fatalf("kind detection = %q/%q, want bxtd/bxtproxy", gw.Kind, pr.Kind)
	}
	if gw.Batches != 10 || gw.Txns != 640 {
		t.Errorf("gateway counters = %.0f batches / %.0f txns, want 10/640", gw.Batches, gw.Txns)
	}
	if pr.Batches != 10 {
		t.Errorf("proxy relayed %.0f batches, want 10", pr.Batches)
	}
	if !gw.HasStage || gw.StageName != "codec_encode" || gw.StageP99 < gw.StageP50 || gw.StageP99 <= 0 {
		t.Errorf("gateway stage quantiles: %+v", gw)
	}
	if !pr.HasStage || pr.StageName != "backend_exchange" || pr.StageP99 <= 0 {
		t.Errorf("proxy stage quantiles: %+v", pr)
	}
	if gw.BaseJoules <= 0 || gw.EncJoules <= 0 || pr.BaseJoules <= 0 {
		t.Errorf("energy columns missing: gateway %g/%g J, proxy %g J",
			gw.BaseJoules, gw.EncJoules, pr.BaseJoules)
	}
	if gw.SpansRecorded != 10 || pr.SpansRecorded != 10 {
		t.Errorf("trace spans = %.0f/%.0f, want 10/10", gw.SpansRecorded, pr.SpansRecorded)
	}

	var first strings.Builder
	renderFleet(&first, snaps, nil)
	out := first.String()
	for _, want := range []string{"TARGET", "bxtd", "bxtproxy", "up", "fleet energy:"} {
		if !strings.Contains(out, want) {
			t.Errorf("first render missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, srv.MetricsAddr()) || !strings.Contains(out, px.MetricsAddr()) {
		t.Errorf("render missing target addresses:\n%s", out)
	}

	// Second poll after more traffic: rate columns switch from "-" to
	// real per-second numbers computed against the previous snapshot.
	stream(5)
	prev := map[string]snapshot{gw.Target: gw, pr.Target: pr}
	snaps2 := collectFleet(targets, fetch, t0.Add(2*time.Second))
	var second strings.Builder
	renderFleet(&second, snaps2, prev)
	gwRow := ""
	for _, line := range strings.Split(second.String(), "\n") {
		if strings.Contains(line, srv.MetricsAddr()) {
			gwRow = line
		}
	}
	if gwRow == "" {
		t.Fatalf("second render has no gateway row:\n%s", second.String())
	}
	// One open v4 stream (the session's stream 0), then 5 batches / 2s
	// renders as "2" (sub-thousand rates drop the fraction), 320 txns / 2s
	// = 160 txn/s.
	if f := strings.Fields(gwRow); len(f) < 7 || f[4] != "1" || f[5] != "2" || f[6] != "160" {
		t.Errorf("gateway stream/rate columns not computed from the previous poll: %q", gwRow)
	}

	// A dead target renders as down without breaking the fleet view.
	down := collectFleet([]string{"127.0.0.1:1"}, fetch, t0)
	var db strings.Builder
	renderFleet(&db, down, nil)
	if !strings.Contains(db.String(), "down") {
		t.Errorf("dead target should render down:\n%s", db.String())
	}
}
