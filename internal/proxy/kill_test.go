package proxy_test

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/testutil"
)

// faultingFleet starts a proxy over two backends that kill a stream after
// two faults; faulty[i] makes backend i fault every batch. Stateless
// routing spreads a stream over both. The proxy probes each backend once,
// at start, and faultingFleet waits for those probes, so from then on a
// backend's connections_total counts only the proxy's upstream dials.
func faultingFleet(t *testing.T, faulty [2]bool) (*proxy.Proxy, [2]*server.Server) {
	t.Helper()
	bcfg := backendConfig()
	bcfg.FaultBudget = 2
	var srvs [2]*server.Server
	for i := range srvs {
		srv, err := server.New(bcfg)
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		if faulty[i] {
			srv.SetFaults(faults.MustNew(faults.Config{Seed: 1, ErrRate: 1}))
		}
		if err := srv.Start(); err != nil {
			t.Fatalf("server.Start: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
	}
	pcfg := proxyConfig(srvs[0].Addr(), srvs[1].Addr())
	pcfg.HealthInterval = time.Hour
	px := startProxy(t, pcfg)
	for _, srv := range srvs {
		deadline := time.Now().Add(5 * time.Second)
		for backendCount(t, srv, "bxtd_connections_total") < 1 {
			if time.Now().After(deadline) {
				t.Fatal("the proxy never probed a backend")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return px, srvs
}

// backendCount reads one unlabeled family from a backend's /metrics.
func backendCount(t *testing.T, srv *server.Server, name string) float64 {
	t.Helper()
	return metricValue(t, httpGet(t, "http://"+srv.MetricsAddr()+"/metrics"), name)
}

// TestProxiedStreamZeroKillReopens pins the re-open of a killed stream 0
// through the proxy: the proxy relays each kill, and the client re-opens
// stream 0 on the same connection. Each re-open must reach a backend as a
// fresh stream, so its faults count again and end in further kills,
// without the client ever redialing.
func TestProxiedStreamZeroKillReopens(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	px, srvs := faultingFleet(t, [2]bool{true, true})
	ccfg := retryClient()
	ccfg.MaxRetries = 12
	c, err := client.DialConfig(px.Addr(), "universal", 32, ccfg)
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	defer c.Close()
	if _, err := c.Transcode(makeTxns(rand.New(rand.NewSource(9)), 8, 32)); err == nil {
		t.Fatal("Transcode against an always-faulting backend succeeded")
	}
	kills := 0.0
	for _, srv := range srvs {
		kills += backendCount(t, srv, "bxtd_stream_kills_total")
	}
	if kills < 3 {
		t.Errorf("%v stream kills across the backends, want at least 3: a re-opened stream 0 never reached a backend", kills)
	}
	if got := c.RetryStats().Reconnects; got != 0 {
		t.Errorf("client reconnected %d times; a stream kill must not cost the connection", got)
	}
}

// TestProxiedKillReopensFresh pins that a stream re-opened after a kill
// starts fresh on every backend it reaches, with no upstream connection
// lost on the way. Retries are off, so the client sees every answer.
//
// With both backends faulting, each kills the stream in turn, and every
// kill must follow as many batch faults as the first: a stream 0 left as
// it was on the other upstream would carry its faults into the re-open
// and die sooner. Each backend there kills the stream before the proxy
// hears of the other's kill, so a close sent for it would meet a stream
// the backend no longer has, which ends the upstream session.
//
// With one backend faulting, the healthy backend still has the stream
// when the other kills it, and must re-open it afresh too.
func TestProxiedKillReopensFresh(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faulty [2]bool
	}{
		{"both-faulting", [2]bool{true, true}},
		{"one-faulting", [2]bool{true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			px, srvs := faultingFleet(t, tc.faulty)
			ccfg := retryClient()
			ccfg.MaxRetries = 0
			c, err := client.DialConfig(px.Addr(), "universal", 32, ccfg)
			if err != nil {
				t.Fatalf("dial through proxy: %v", err)
			}
			defer c.Close()
			txns := makeTxns(rand.New(rand.NewSource(9)), 8, 32)
			var runs []int // batch faults before each kill
			n := 0
			for i := 0; i < 20; i++ {
				_, err := c.Transcode(txns)
				switch {
				case err == nil && !tc.faulty[1]:
				case errors.Is(err, client.ErrStreamKilled):
					runs, n = append(runs, n), 0
				case errors.Is(err, client.ErrBatchFault):
					n++
				default:
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			if len(runs) < 3 {
				t.Fatalf("%d kills in 20 batches, want at least 3", len(runs))
			}
			for i, r := range runs[1:] {
				if r != runs[0] {
					t.Errorf("kill %d followed %d batch faults, the first %d: a re-opened stream kept an old stream's faults", i+2, r, runs[0])
				}
			}
			for i, srv := range srvs {
				// The start probe, then one upstream, never redialed.
				if got := backendCount(t, srv, "bxtd_connections_total"); got != 2 {
					t.Errorf("backend %d served %v connections, want 2: an upstream session was lost", i, got)
				}
			}
			if !tc.faulty[1] {
				// The probe's stream and the upstream Hello's, then one
				// fresh open for every kill the next batches follow.
				if got, want := backendCount(t, srvs[1], "bxtd_streams_total"), float64(2+len(runs)-1); got < want {
					t.Errorf("healthy backend opened %v streams, want at least %v: the stream it held was never re-opened", got, want)
				}
			}
			if got := c.RetryStats().Reconnects; got != 0 {
				t.Errorf("client reconnected %d times; a stream kill must not cost the connection", got)
			}
		})
	}
}
