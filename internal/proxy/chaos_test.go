package proxy_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/testutil"
)

// TestProxyChaosEndToEnd is the headline sharding proof: eight client
// sessions (half stateless universal, half pinned bdenc) stream 10k
// transactions each through a proxy over three backends while one backend
// — the one carrying the most pinned sessions — is killed mid-run and
// later restarted on the same address.
//
// The bar: zero decode mismatches, zero client disconnects (every
// dead-backend batch converts to a recoverable reply, never a dropped
// connection), pinned sessions re-pin with the epoch bump their decoders
// need, the surviving backends absorb the displaced traffic, and the
// restarted backend rejoins routing — all asserted through the public
// /metrics surface, and the whole exercise leaks no goroutines.
func TestProxyChaosEndToEnd(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const sessions = 8
	const batchSize = 64
	const txnSize = 32
	txnsPer := 10000
	if testing.Short() {
		txnsPer = 2000
	}
	batchesPer := txnsPer / batchSize
	totalBatches := int64(sessions * batchesPer)

	bcfg := backendConfig()
	srvs := make([]*server.Server, 3)
	addrs := make([]string, 3)
	var srvMu sync.Mutex
	for i := range srvs {
		srvs[i] = startBackend(t, bcfg)
		addrs[i] = srvs[i].Addr()
	}
	px := startProxy(t, proxyConfig(addrs...))
	metricsURL := "http://" + px.MetricsAddr() + "/metrics"

	var batchesDone atomic.Int64
	sessionsLive := atomic.Int64{}
	sessionsLive.Store(sessions)
	waitProgress := func(frac float64) bool {
		for float64(batchesDone.Load()) < frac*float64(totalBatches) {
			if sessionsLive.Load() == 0 {
				return false
			}
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}

	// The saboteur: at ~25% progress kill the backend with the most
	// pinned sessions, snapshot the survivors' counters, at ~60% restart
	// the victim on its old address.
	victimIdx := -1
	var survivorsAtKill [3]float64
	sabotage := make(chan error, 1)
	go func() {
		sabotage <- func() error {
			if !waitProgress(0.25) {
				return fmt.Errorf("sessions finished before the kill point")
			}
			exp := httpGet(t, metricsURL)
			best := -1.0
			for i, a := range addrs {
				if got := backendMetric(t, exp, "bxtproxy_backend_pinned_sessions", a); got > best {
					best, victimIdx = got, i
				}
			}
			if best < 1 {
				return fmt.Errorf("no backend carries a pinned session; victim selection is meaningless")
			}
			for i, a := range addrs {
				survivorsAtKill[i] = backendMetric(t, exp, "bxtproxy_backend_batches_total", a)
			}
			srvMu.Lock()
			err := srvs[victimIdx].Close()
			srvMu.Unlock()
			if err != nil {
				return fmt.Errorf("killing backend %d: %w", victimIdx, err)
			}
			if !waitProgress(0.60) {
				return fmt.Errorf("sessions finished during the outage window")
			}
			rcfg := bcfg
			rcfg.ListenAddr = addrs[victimIdx]
			replacement, err := server.New(rcfg)
			if err != nil {
				return fmt.Errorf("rebuilding victim: %w", err)
			}
			if err := replacement.Start(); err != nil {
				return fmt.Errorf("restarting victim on %s: %w", addrs[victimIdx], err)
			}
			srvMu.Lock()
			srvs[victimIdx] = replacement
			srvMu.Unlock()
			return nil
		}()
	}()
	t.Cleanup(func() {
		srvMu.Lock()
		defer srvMu.Unlock()
		for _, s := range srvs {
			s.Close()
		}
	})

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	bdencBumps := make([]int, sessions)
	var statsMu sync.Mutex
	var total client.RetryStats
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer sessionsLive.Add(-1)
			schemeName := "universal"
			if i%2 == 1 {
				schemeName = "bdenc"
			}
			stats, bumps, err := chaosSession(px.Addr(), schemeName, bcfg, batchesPer, batchSize, txnSize, int64(100+i), &batchesDone)
			errs[i], bdencBumps[i] = err, bumps
			statsMu.Lock()
			total.Retries += stats.Retries
			total.Reconnects += stats.Reconnects
			total.Busy += stats.Busy
			total.BatchErrors += stats.BatchErrors
			statsMu.Unlock()
		}(i)
	}
	wg.Wait()
	if err := <-sabotage; err != nil {
		t.Fatalf("sabotage sequencing: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	t.Logf("client recovery: %+v", total)

	// Zero client disconnects: failover converted every dead-backend
	// batch into a recoverable reply, so no session ever redialed.
	if total.Reconnects != 0 {
		t.Errorf("clients reconnected %d times; the proxy must absorb backend death", total.Reconnects)
	}
	// The outage was actually exercised and recovered from.
	if total.Retries == 0 {
		t.Error("no client retried anything; the kill disrupted nothing")
	}

	exp := httpGet(t, metricsURL)
	if got := metricValue(t, exp, "bxtproxy_repins_total"); got < 1 {
		t.Errorf("bxtproxy_repins_total = %v, want >= 1 (pinned sessions must migrate)", got)
	}
	if got := metricValue(t, exp, "bxtproxy_batch_error_converted_total"); got < 1 {
		t.Errorf("bxtproxy_batch_error_converted_total = %v, want >= 1", got)
	}
	anyBump := false
	for i := 1; i < sessions; i += 2 {
		anyBump = anyBump || bdencBumps[i] > 0
	}
	if !anyBump {
		t.Error("no bdenc session observed an epoch bump; pin migration never reset a client decoder")
	}

	// Rebalance: the survivors' batch counters must have grown past their
	// kill-time snapshots — the displaced traffic landed on them.
	for i, a := range addrs {
		if i == victimIdx {
			continue
		}
		end := backendMetric(t, exp, "bxtproxy_backend_batches_total", a)
		if end <= survivorsAtKill[i] {
			t.Errorf("survivor %s served nothing after the kill (%v -> %v)", a, survivorsAtKill[i], end)
		}
	}

	// The restarted victim rejoins: the prober restores it, and a fresh
	// session's batches reach it. Latency-weighted routing may prefer a
	// survivor, so the test takes that choice away: with the survivors
	// draining, the restored backend is the only one a new stateless
	// session can route to.
	victimAddr := addrs[victimIdx]
	deadline := time.Now().Add(5 * time.Second)
	for backendMetric(t, httpGet(t, metricsURL), "bxtproxy_backend_up", victimAddr) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("restarted backend never restored to routing")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, a := range addrs {
		if i == victimIdx {
			continue
		}
		if code, body := httpPost(t, "http://"+px.MetricsAddr()+"/drain?backend="+a); code != 200 {
			t.Fatalf("draining survivor %s: %d %s", a, code, body)
		}
	}
	before := backendMetric(t, httpGet(t, metricsURL), "bxtproxy_backend_batches_total", victimAddr)
	c, err := client.DialConfig(px.Addr(), "universal", txnSize, retryClient())
	if err != nil {
		t.Fatalf("post-restore dial: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	verifySession(t, c, buildDecoder(t, "universal"), rng, 10, 8)
	c.Close()
	after := backendMetric(t, httpGet(t, metricsURL), "bxtproxy_backend_batches_total", victimAddr)
	if after <= before {
		t.Errorf("restored backend served no new batches (%v -> %v)", before, after)
	}
}

// chaosSession streams batches through one session, decoding every record
// against its source and retrying batches that fail while the fleet is
// being sabotaged. It reports the client's recovery stats and how many
// epoch bumps the session observed.
func chaosSession(addr, schemeName string, bcfg config.Server, batches, batchSize, txnSize int, seed int64, done *atomic.Int64) (client.RetryStats, int, error) {
	c, err := client.DialConfig(addr, schemeName, txnSize, retryClient())
	if err != nil {
		return client.RetryStats{}, 0, fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	dec, err := scheme.New(schemeName)
	if err != nil {
		return c.RetryStats(), 0, err
	}
	bumps := 0
	lastEpoch := c.Epoch()
	rng := rand.New(rand.NewSource(seed))
	decoded := make([]byte, txnSize)
	deadline := time.Now().Add(90 * time.Second)
	for bi := 0; bi < batches; bi++ {
		txns := makeTxns(rng, batchSize, txnSize)
		reply, err := c.Transcode(txns)
		for err != nil {
			if time.Now().After(deadline) {
				return c.RetryStats(), bumps, fmt.Errorf("batch %d never served: %w", bi, err)
			}
			reply, err = c.Transcode(txns)
		}
		done.Add(1)
		if e := c.Epoch(); e != lastEpoch {
			dec.Reset()
			lastEpoch = e
			bumps++
		}
		if len(reply.Records) != len(txns) {
			return c.RetryStats(), bumps, fmt.Errorf("batch %d: %d records for %d transactions", bi, len(reply.Records), len(txns))
		}
		for j, rec := range reply.Records {
			e := core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: c.MetaBits()}
			if err := dec.Decode(decoded, &e); err != nil {
				return c.RetryStats(), bumps, fmt.Errorf("batch %d record %d: decode: %w", bi, j, err)
			}
			for k := range decoded {
				if decoded[k] != txns[j].Data[k] {
					return c.RetryStats(), bumps, fmt.Errorf("batch %d record %d: DECODE MISMATCH at byte %d", bi, j, k)
				}
			}
		}
	}
	return c.RetryStats(), bumps, nil
}

// TestProxyBackendLegChaos arms the proxy's fault injector so the
// proxy↔backend byte streams are actively corrupted, dropped, and
// truncated while sessions stream. The client leg stays clean, so every
// injected fault must be absorbed by the failover conversion machinery:
// zero decode mismatches, zero client disconnects.
func TestProxyBackendLegChaos(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const sessions = 4
	const batchSize = 32
	const txnSize = 32
	batches := 60
	if testing.Short() {
		batches = 20
	}

	bcfg := backendConfig()
	var addrs []string
	for i := 0; i < 2; i++ {
		addrs = append(addrs, startBackend(t, bcfg).Addr())
	}
	pcfg := proxyConfig(addrs...)
	px, err := proxy.New(pcfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	inj := faults.MustNew(faults.Config{
		Seed:         11,
		CorruptRate:  0.02,
		DropRate:     0.01,
		TruncateRate: 0.01,
	})
	px.SetFaults(inj)
	if err := px.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(func() { px.Close() })

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	var statsMu sync.Mutex
	var total client.RetryStats
	var done atomic.Int64
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			schemeName := "universal"
			if i%2 == 1 {
				schemeName = "bdenc"
			}
			stats, _, err := chaosSession(px.Addr(), schemeName, bcfg, batches, batchSize, txnSize, int64(300+i), &done)
			errs[i] = err
			statsMu.Lock()
			total.Retries += stats.Retries
			total.Reconnects += stats.Reconnects
			total.Busy += stats.Busy
			total.BatchErrors += stats.BatchErrors
			statsMu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	counts := inj.Counts()
	t.Logf("injected: %s", counts)
	t.Logf("client recovery: %+v", total)
	if counts.Total() == 0 {
		t.Error("the injector fired no faults; the drill proved nothing")
	}
	if total.Reconnects != 0 {
		t.Errorf("clients reconnected %d times; backend-leg faults must never reach the client connection", total.Reconnects)
	}
}
