package proxy_test

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/obs"
)

// traceDoc mirrors the /debug/trace JSON shape shared by bxtd and bxtproxy.
type traceDoc struct {
	Total uint64 `json:"total"`
	Spans []struct {
		TraceID string `json:"trace_id"`
		Scheme  string `json:"scheme"`
		TotalNS int64  `json:"total_ns"`
		Stages  []struct {
			Stage string `json:"stage"`
			Nanos int64  `json:"ns"`
		} `json:"stages"`
	} `json:"spans"`
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

// getTraceSpan polls one tier's /debug/trace until it holds exactly one span
// for traceID, and returns it. Each tier records its span after writing the
// reply, so a client can hold the reply before the span exists.
func getTraceSpan(t *testing.T, tier, metricsAddr string, traceID uint64) traceDoc {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		doc := getTrace(t, metricsAddr, traceID)
		if len(doc.Spans) == 1 {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s /debug/trace returned %d spans for %s, want 1", tier, len(doc.Spans), obs.FormatTraceID(traceID))
		}
	}
}

// TestTraceThroughProxy is the fleet-wide tracing acceptance test: one
// trace id minted at the client must surface three correlated spans — the
// client's, the proxy's relay leg, and the backend's pipeline — each
// queryable from its own /debug/trace, with the durations nesting the way
// the legs nest: client round trip >= proxy backend_exchange >= the
// backend's processing stages.
func TestTraceThroughProxy(t *testing.T) {
	srv := startBackend(t, backendConfig())
	px := startProxy(t, proxyConfig(srv.Addr()))

	ccfg := retryClient()
	ccfg.Trace = obs.NewTraceRing(16)
	c, err := client.DialConfig(px.Addr(), "universal", 32, ccfg)
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(57))
	if _, err := c.Transcode(makeTxns(rng, 96, 32)); err != nil {
		t.Fatalf("Transcode: %v", err)
	}
	id := c.LastTraceID()
	if id == 0 {
		t.Fatal("client minted trace id 0")
	}

	cspans := ccfg.Trace.Find(id)
	if len(cspans) != 1 {
		t.Fatalf("client ring holds %d spans for the trace, want 1", len(cspans))
	}
	ctotal := cspans[0].Total()

	pdoc := getTraceSpan(t, "proxy", px.MetricsAddr(), id)
	var exchange time.Duration
	for _, st := range pdoc.Spans[0].Stages {
		if st.Stage == string(obs.StageBackend) {
			exchange = time.Duration(st.Nanos)
		}
	}
	if exchange <= 0 {
		t.Fatalf("proxy relay span %+v carries no backend_exchange stage", pdoc.Spans[0])
	}

	bdoc := getTraceSpan(t, "backend", srv.MetricsAddr(), id)
	var processing time.Duration
	for _, st := range bdoc.Spans[0].Stages {
		// Only the stages strictly nested inside the proxy's exchange bound
		// it: frame_read includes the idle wait for the batch to arrive, and
		// frame_write is recorded after the reply has left.
		switch obs.Stage(st.Stage) {
		case obs.StageAdmission, obs.StageEncode, obs.StageAccount:
			processing += time.Duration(st.Nanos)
		}
	}
	if processing <= 0 {
		t.Fatalf("backend span %+v carries no processing stages", bdoc.Spans[0])
	}

	if ctotal < exchange {
		t.Errorf("client round trip %v shorter than the proxy's backend exchange %v", ctotal, exchange)
	}
	if exchange < processing {
		t.Errorf("proxy backend exchange %v shorter than the backend's processing %v", exchange, processing)
	}
}
