package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/power"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/trace"
)

// replayWire recomputes a session's cumulative wire statistics offline: a
// fresh codec and a fresh baseline/encoded bus pair walk the same
// transactions the live session served, with no serving-stack code in the
// loop beyond the codec and bus models themselves.
func replayWire(t *testing.T, cfg config.Server, schemeName string, txns []trace.Transaction, txnSize int) (base, enc bus.Stats) {
	t.Helper()
	codec, err := scheme.New(schemeName)
	if err != nil {
		t.Fatalf("Build(%s): %v", schemeName, err)
	}
	metaBits := codec.MetaBits(txnSize)
	baseBus := bus.New(cfg.ChannelWidthBits)
	encBus := bus.New(cfg.ChannelWidthBits)
	var e core.Encoded
	for i := range txns {
		if err := codec.Encode(&e, txns[i].Data); err != nil {
			t.Fatalf("offline encode txn %d: %v", i, err)
		}
		raw := core.Encoded{Data: txns[i].Data}
		if err := baseBus.Transfer(&raw); err != nil {
			t.Fatalf("offline baseline transfer: %v", err)
		}
		rec := core.Encoded{Data: e.Data, Meta: e.Meta, MetaBits: metaBits}
		if err := encBus.Transfer(&rec); err != nil {
			t.Fatalf("offline encoded transfer: %v", err)
		}
	}
	return baseBus.Stats(), encBus.Stats()
}

// streamTxns drives one client session over a pre-generated trace in fixed
// batches, discarding replies (the round-trip correctness is covered
// elsewhere; here only the server-side accounting matters).
func streamTxns(addr, schemeName string, txns []trace.Transaction, txnSize, batch int) error {
	c, err := client.Dial(addr, schemeName, txnSize)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	for off := 0; off < len(txns); off += batch {
		end := off + batch
		if end > len(txns) {
			end = len(txns)
		}
		if _, err := c.Transcode(txns[off:end]); err != nil {
			return fmt.Errorf("transcode batch at %d: %w", off, err)
		}
	}
	return nil
}

// TestEnergyTelemetryDifferential is the telemetry acceptance test: after 8
// concurrent sessions stream 10k transactions each, the live /metrics wire
// counters and derived joules must equal — exactly, not approximately — an
// offline recomputation of the same traffic through fresh bus.Stats and the
// same power.Model. Integer wire counts compare as integers; joules compare
// as bit-identical float64s, which holds because the exposition prints %g
// (shortest round-trip form) and the estimator is a pure function of the
// integer counters. The invariant must survive the similarity cache: the
// memoized-summary accounting path may never drift from the full Transfer
// walk.
func TestEnergyTelemetryDifferential(t *testing.T) {
	const (
		txnSize    = 32
		perSession = 10000
		batch      = 500
	)
	sessions := []struct {
		scheme   string
		seed     int64
		flipBits int
	}{
		{"universal", 101, 0},
		{"universal", 102, 0},
		{"4b", 103, 6},
		{"4b", 104, 6},
		{"universal", 105, 0},
		{"universal", 106, 0},
		{"4b", 107, 6},
		{"4b", 108, 6},
	}

	for _, cached := range []bool{false, true} {
		name := "cache-off"
		if cached {
			name = "cache-on"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.SimCache.Enabled = cached
			srv := startServer(t, cfg)

			traces := make([][]trace.Transaction, len(sessions))
			for i, s := range sessions {
				traces[i] = makeHotTxns(s.seed, perSession, txnSize, s.flipBits)
			}

			var wg sync.WaitGroup
			errs := make([]error, len(sessions))
			for i := range sessions {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = streamTxns(srv.Addr(), sessions[i].scheme, traces[i], txnSize, batch)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("session %d (%s): %v", i, sessions[i].scheme, err)
				}
			}

			// Offline recomputation: per-session fresh codec + bus pair,
			// summed per scheme — the same additive composition the live
			// per-scheme EnergyCounter performs over batch deltas.
			type legs struct{ base, enc bus.Stats }
			offline := map[string]*legs{}
			for i, s := range sessions {
				base, enc := replayWire(t, cfg, s.scheme, traces[i], txnSize)
				l := offline[s.scheme]
				if l == nil {
					l = &legs{}
					offline[s.scheme] = l
				}
				l.base.Add(base)
				l.enc.Add(enc)
			}

			resp, err := http.Get("http://" + srv.MetricsAddr() + "/metrics")
			if err != nil {
				t.Fatalf("scraping metrics: %v", err)
			}
			points, err := obs.ParsePromText(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("parsing metrics: %v", err)
			}

			wantInt := func(family, schemeName, leg string, want uint64) {
				t.Helper()
				p := obs.FindMetric(points, "bxtd_"+family, "scheme", schemeName, "leg", leg)
				if p == nil {
					t.Fatalf("metrics missing bxtd_%s{scheme=%q,leg=%q}", family, schemeName, leg)
				}
				if p.Value != float64(want) {
					t.Errorf("bxtd_%s{scheme=%q,leg=%q} = %v, offline recomputation says %d",
						family, schemeName, leg, p.Value, want)
				}
			}
			wantFloat := func(family, schemeName string, extra []string, want float64) {
				t.Helper()
				kv := append([]string{"scheme", schemeName}, extra...)
				p := obs.FindMetric(points, "bxtd_"+family, kv...)
				if p == nil {
					t.Fatalf("metrics missing bxtd_%s{scheme=%q,%v}", family, schemeName, extra)
				}
				if p.Value != want {
					t.Errorf("bxtd_%s{scheme=%q,%v} = %v, offline recomputation says %v (not bit-identical)",
						family, schemeName, extra, p.Value, want)
				}
			}

			model := power.NewModel()
			for schemeName, l := range offline {
				wantInt("wire_ones_total", schemeName, "baseline", uint64(l.base.Ones()))
				wantInt("wire_ones_total", schemeName, "encoded", uint64(l.enc.Ones()))
				wantInt("wire_toggles_total", schemeName, "baseline", uint64(l.base.Toggles()))
				wantInt("wire_toggles_total", schemeName, "encoded", uint64(l.enc.Toggles()))
				wantInt("wire_bits_total", schemeName, "baseline", uint64(l.base.DataBits+l.base.MetaBits))
				wantInt("wire_bits_total", schemeName, "encoded", uint64(l.enc.DataBits+l.enc.MetaBits))

				var baseJ, encJ float64
				for _, comp := range model.Estimate(l.base).Components() {
					wantFloat("energy_joules_total", schemeName,
						[]string{"leg", "baseline", "component", comp.Name}, comp.Joules)
					baseJ += comp.Joules
				}
				for _, comp := range model.Estimate(l.enc).Components() {
					wantFloat("energy_joules_total", schemeName,
						[]string{"leg", "encoded", "component", comp.Name}, comp.Joules)
					encJ += comp.Joules
				}
				wantFloat("energy_saved_joules_total", schemeName, nil, baseJ-encJ)
				bytes := float64(l.enc.DataBits) / 8
				wantFloat("energy_joules_per_byte", schemeName, []string{"leg", "baseline"}, baseJ/bytes)
				wantFloat("energy_joules_per_byte", schemeName, []string{"leg", "encoded"}, encJ/bytes)
			}

			// Sanity-pin the composition itself: both schemes streamed
			// 4 sessions x 10k transactions.
			for schemeName, l := range offline {
				if l.base.Transactions != 4*perSession {
					t.Errorf("offline %s replay saw %d transactions, want %d",
						schemeName, l.base.Transactions, 4*perSession)
				}
			}
			if cached {
				// The run must actually have exercised the memoized path.
				if hits := obs.SumMetric(points, "bxtd_simcache_hits_total"); hits == 0 {
					t.Error("cache-on differential run recorded no simcache hits; the memoized accounting path went unexercised")
				}
			}
		})
	}
}

// traceDoc mirrors the /debug/trace JSON shape the handler emits.
type traceDoc struct {
	Total uint64 `json:"total"`
	Spans []struct {
		TraceID string `json:"trace_id"`
		BatchID uint64 `json:"batch_id"`
		Scheme  string `json:"scheme"`
		TotalNS int64  `json:"total_ns"`
		Stages  []struct {
			Stage string `json:"stage"`
			Nanos int64  `json:"ns"`
		} `json:"stages"`
	} `json:"spans"`
	Exemplars []struct {
		Stage   string `json:"stage"`
		TraceID string `json:"trace_id"`
	} `json:"exemplars"`
}

func getTrace(t *testing.T, metricsAddr string, traceID uint64) traceDoc {
	t.Helper()
	body := httpGet(t, "http://"+metricsAddr+"/debug/trace?trace="+obs.FormatTraceID(traceID))
	var doc traceDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decoding /debug/trace: %v\n%s", err, body)
	}
	return doc
}

// TestTraceEndToEnd is the tracing acceptance test for the direct
// client-to-gateway path: one batch's trace id, minted at the client and
// carried in the batch envelope, must surface a client-side span (whose
// frame_write + frame_read stages sum to the observed batch latency) and a
// backend span on /debug/trace whose pipeline stages nest inside the
// client's round trip.
func TestTraceEndToEnd(t *testing.T) {
	srv := startServer(t, testConfig())
	ring := obs.NewTraceRing(16)
	c, err := client.DialConfig(srv.Addr(), "universal", 32, client.Config{Trace: ring})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(41))
	start := time.Now()
	if _, err := c.Transcode(makeTxns(rng, 128, 32)); err != nil {
		t.Fatalf("Transcode: %v", err)
	}
	elapsed := time.Since(start)
	id := c.LastTraceID()
	if id == 0 {
		t.Fatal("client minted trace id 0")
	}

	// Client-side span: one record, stages summing to the batch latency
	// (both are wall-clock measurements bracketing the same exchange, so
	// the span total can only be smaller).
	cspans := ring.Find(id)
	if len(cspans) != 1 {
		t.Fatalf("client ring holds %d spans for the trace, want 1", len(cspans))
	}
	ctotal := cspans[0].Total()
	if ctotal <= 0 || ctotal > elapsed {
		t.Fatalf("client span total %v outside (0, %v]", ctotal, elapsed)
	}
	var haveWrite, haveRead bool
	for _, st := range cspans[0].Stages() {
		haveWrite = haveWrite || st.Stage == obs.StageFrameWrite
		haveRead = haveRead || st.Stage == obs.StageFrameRead
	}
	if !haveWrite || !haveRead {
		t.Fatalf("client span stages = %v, want frame_write and frame_read", cspans[0].Stages())
	}

	// Backend span, correlated by the same id through /debug/trace.
	doc := getTrace(t, srv.MetricsAddr(), id)
	if len(doc.Spans) != 1 {
		t.Fatalf("/debug/trace returned %d spans for %s, want 1", len(doc.Spans), obs.FormatTraceID(id))
	}
	sp := doc.Spans[0]
	if sp.TraceID != obs.FormatTraceID(id) || sp.Scheme != "universal" {
		t.Fatalf("backend span = %+v, want trace %s scheme universal", sp, obs.FormatTraceID(id))
	}
	var sum int64
	got := map[string]bool{}
	for _, st := range sp.Stages {
		sum += st.Nanos
		got[st.Stage] = true
	}
	for _, want := range []obs.Stage{obs.StageFrameRead, obs.StageAdmission, obs.StageEncode, obs.StageAccount, obs.StageFrameWrite} {
		if !got[string(want)] {
			t.Errorf("backend span missing stage %s (have %v)", want, sp.Stages)
		}
	}
	if sum != sp.TotalNS {
		t.Errorf("backend stage sum %dns != span total %dns", sum, sp.TotalNS)
	}
	// Only admission, codec_encode and phy_account nest strictly inside
	// the client's round trip: the server's frame_read stage includes
	// idle wait for the batch to arrive, and its frame_write stage ends
	// after the reply syscall returns, by which time the client may
	// already hold the reply.
	var inner int64
	for _, st := range sp.Stages {
		switch obs.Stage(st.Stage) {
		case obs.StageAdmission, obs.StageEncode, obs.StageAccount:
			inner += st.Nanos
		}
	}
	if time.Duration(inner) > ctotal {
		t.Errorf("backend processing %v exceeds client round trip %v", time.Duration(inner), ctotal)
	}
}
