package server

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses a Prometheus text-format document, failing the test on
// any malformed line. It returns every sample.
func parseProm(t *testing.T, body string) []promSample {
	t.Helper()
	var samples []promSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d has no value: %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d value %q: %v", ln+1, valStr, err)
		}
		s := promSample{labels: map[string]string{}, value: val}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d has unterminated labels: %q", ln+1, line)
			}
			s.name = series[:i]
			for _, kv := range strings.Split(series[i+1:len(series)-1], ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					t.Fatalf("line %d label %q has no =", ln+1, kv)
				}
				unq, err := strconv.Unquote(v)
				if err != nil {
					t.Fatalf("line %d label value %q: %v", ln+1, v, err)
				}
				s.labels[k] = unq
			}
		} else {
			s.name = series
		}
		if s.name == "" {
			t.Fatalf("line %d has empty metric name: %q", ln+1, line)
		}
		samples = append(samples, s)
	}
	return samples
}

// find returns the samples of one family, optionally filtered by labels.
func find(samples []promSample, name string, labels map[string]string) []promSample {
	var out []promSample
next:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for k, v := range labels {
			if s.labels[k] != v {
				continue next
			}
		}
		out = append(out, s)
	}
	return out
}

// one returns the single sample of a family+labels, or fails.
func one(t *testing.T, samples []promSample, name string, labels map[string]string) promSample {
	t.Helper()
	got := find(samples, name, labels)
	if len(got) != 1 {
		t.Fatalf("%s%v: got %d samples, want 1", name, labels, len(got))
	}
	return got[0]
}

// TestMetricsExposition drives traffic through one scheme, scrapes
// /metrics, and parses every emitted family: the exposition must be
// well-formed text format with the documented Content-Type, carry the
// per-scheme counters, a complete per-stage histogram set, and the Go
// runtime gauges.
func TestMetricsExposition(t *testing.T) {
	srv := startServer(t, testConfig())
	const total, batch = 2000, 250
	received, err := streamAndVerify(srv.Addr(), "universal", 7, total, batch, 32)
	if err != nil {
		t.Fatal(err)
	}

	// /metrics waits out in-flight reply writes, so one scrape taken after
	// the client holds its last reply counts every batch exactly.
	resp, err := http.Get("http://" + srv.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	samples := parseProm(t, string(raw))

	// Serving gauges and per-scheme counters.
	for _, name := range []string{
		"bxtd_draining", "bxtd_connections_active",
		"bxtd_connections_total", "bxtd_connections_rejected_total",
	} {
		one(t, samples, name, nil)
	}
	sl := map[string]string{"scheme": "universal"}
	if got := one(t, samples, "bxtd_transactions_total", sl).value; got != total {
		t.Errorf("transactions_total = %g, want %d", got, total)
	}
	if got := one(t, samples, "bxtd_batches_total", sl).value; got != total/batch {
		t.Errorf("batches_total = %g, want %d", got, total/batch)
	}
	one(t, samples, "bxtd_bytes_total", sl)

	// Unified live wire/energy telemetry families (the obs.Expo vocabulary
	// shared with bxtproxy). The wire counters must agree with the summed
	// BatchStats of the replies the client received.
	for _, leg := range []struct {
		name          string
		ones, toggles uint64
	}{
		{"baseline", received.OnesBefore, received.TogglesBefore},
		{"encoded", received.OnesAfter, received.TogglesAfter},
	} {
		ll := map[string]string{"scheme": "universal", "leg": leg.name}
		if got := one(t, samples, "bxtd_wire_ones_total", ll).value; got != float64(leg.ones) {
			t.Errorf("bxtd_wire_ones_total{leg=%q} = %g, client received %d", leg.name, got, leg.ones)
		}
		if got := one(t, samples, "bxtd_wire_toggles_total", ll).value; got != float64(leg.toggles) {
			t.Errorf("bxtd_wire_toggles_total{leg=%q} = %g, client received %d", leg.name, got, leg.toggles)
		}
		if one(t, samples, "bxtd_wire_bits_total", ll).value <= 0 {
			t.Errorf("bxtd_wire_bits_total{leg=%q} not positive", leg.name)
		}
		comps := find(samples, "bxtd_energy_joules_total", ll)
		if len(comps) < 4 {
			t.Errorf("bxtd_energy_joules_total{leg=%q}: %d components, want the power model's breakdown", leg.name, len(comps))
		}
		one(t, samples, "bxtd_energy_joules_per_byte", ll)
	}
	if one(t, samples, "bxtd_energy_saved_joules_total", sl).value <= 0 {
		t.Error("bxtd_energy_saved_joules_total not positive after encoded traffic")
	}
	one(t, samples, "bxtd_energy_window_watts", sl)
	one(t, samples, "bxtd_energy_window_savings_ratio", sl)
	if got := one(t, samples, "bxtd_trace_spans_total", nil).value; got != total/batch {
		t.Errorf("bxtd_trace_spans_total = %g, want %d", got, total/batch)
	}

	// Per-stage histograms: every pipeline stage present, cumulative
	// buckets monotone and capped by _count, batch-paced stages counting
	// exactly the replied batches.
	for _, stage := range obs.Stages() {
		hl := map[string]string{"scheme": "universal", "stage": string(stage)}
		count := one(t, samples, "bxtd_stage_seconds_count", hl)
		sum := one(t, samples, "bxtd_stage_seconds_sum", hl)
		if count.value != total/batch {
			t.Errorf("stage %s count = %g, want %d", stage, count.value, total/batch)
		}
		if sum.value <= 0 {
			t.Errorf("stage %s sum = %g, want > 0", stage, sum.value)
		}
		buckets := find(samples, "bxtd_stage_seconds_bucket", hl)
		if len(buckets) < 2 {
			t.Fatalf("stage %s has %d buckets", stage, len(buckets))
		}
		sort.Slice(buckets, func(i, j int) bool {
			return leBound(t, buckets[i]) < leBound(t, buckets[j])
		})
		prev := -1.0
		for _, b := range buckets {
			if b.value < prev {
				t.Errorf("stage %s bucket le=%s not cumulative", stage, b.labels["le"])
			}
			prev = b.value
		}
		last := buckets[len(buckets)-1]
		if last.labels["le"] != "+Inf" || last.value != count.value {
			t.Errorf("stage %s +Inf bucket = %v, want le=+Inf value %g", stage, last, count.value)
		}
	}

	// Runtime gauges.
	for _, name := range []string{
		"bxtd_go_goroutines", "bxtd_go_heap_alloc_bytes", "bxtd_go_heap_objects",
		"bxtd_go_sys_bytes", "bxtd_go_gc_cycles_total", "bxtd_go_gc_pause_seconds_total",
	} {
		if one(t, samples, name, nil).value < 0 {
			t.Errorf("%s is negative", name)
		}
	}
}

// leBound parses a bucket's le label for sorting (+Inf sorts last).
func leBound(t *testing.T, s promSample) float64 {
	t.Helper()
	le := s.labels["le"]
	if le == "+Inf" {
		return 1e300
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("unparseable le %q", le)
	}
	return v
}

// eventsDoc mirrors the /debug/events JSON document.
type eventsDoc struct {
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"`
}

// getEvents fetches and decodes /debug/events.
func getEvents(t *testing.T, metricsAddr string) eventsDoc {
	t.Helper()
	resp, err := http.Get("http://" + metricsAddr + "/debug/events")
	if err != nil {
		t.Fatalf("GET /debug/events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/events: status %d", resp.StatusCode)
	}
	var doc eventsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding events: %v", err)
	}
	return doc
}

// TestDebugEndpointsGated verifies the pprof and event surfaces respond
// when cfg.Debug is set and 404 when it is not.
func TestDebugEndpointsGated(t *testing.T) {
	paths := []string{"/debug/events", "/debug/poison", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"}

	cfg := testConfig()
	cfg.Debug = true
	srv := startServer(t, cfg)
	for _, p := range paths {
		resp, err := http.Get("http://" + srv.MetricsAddr() + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d with Debug on, want 200", p, resp.StatusCode)
		}
	}
	if doc := getEvents(t, srv.MetricsAddr()); doc.Total != 0 || len(doc.Events) != 0 {
		t.Errorf("fresh server events = %+v, want empty", doc)
	}

	cfg = testConfig()
	cfg.Debug = false
	srv2 := startServer(t, cfg)
	for _, p := range paths {
		resp, err := http.Get("http://" + srv2.MetricsAddr() + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d with Debug off, want 404", p, resp.StatusCode)
		}
	}
}

// TestDrainUnderLoadConsistency runs concurrent closed-loop clients,
// shuts the server down mid-stream, and asserts the observability layer
// stayed consistent through the drain: every batch observed by the encode
// stage was replied (frame_write count and batches_total match), the
// client-side reply tally agrees, and every session_open has a matching
// session_close event plus one drain_begin.
func TestDrainUnderLoadConsistency(t *testing.T) {
	const conns = 6
	cfg := testConfig()
	cfg.EventBuffer = 1024
	srv := startServer(t, cfg)

	var replies atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr(), "universal", 32)
			if err != nil {
				t.Errorf("conn %d: %v", i, err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(i)))
			txns := makeTxns(rng, 64, 32)
			for {
				if _, err := c.Transcode(txns); err != nil {
					return // the drain tears the session down
				}
				replies.Add(1)
			}
		}(i)
	}

	// Let the load run, then drain mid-stream.
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	if replies.Load() == 0 {
		t.Fatal("no batches completed before the drain")
	}

	// The metrics endpoint stays up until Close: scrape post-drain state.
	samples := parseProm(t, httpGet(t, "http://"+srv.MetricsAddr()+"/metrics"))
	if one(t, samples, "bxtd_draining", nil).value != 1 {
		t.Error("bxtd_draining != 1 after Shutdown")
	}
	sl := map[string]string{"scheme": "universal"}
	batches := one(t, samples, "bxtd_batches_total", sl).value
	encodes := one(t, samples, "bxtd_stage_seconds_count",
		map[string]string{"scheme": "universal", "stage": "codec_encode"}).value
	writes := one(t, samples, "bxtd_stage_seconds_count",
		map[string]string{"scheme": "universal", "stage": "frame_write"}).value
	if got := float64(replies.Load()); batches != got || encodes != got || writes != got {
		t.Errorf("batches observed != batches replied: clients got %g replies, batches_total %g, encode count %g, write count %g",
			got, batches, encodes, writes)
	}

	// Lifecycle events: one open and one close per session, one drain.
	doc := getEvents(t, srv.MetricsAddr())
	byType := map[string][]obs.Event{}
	for _, e := range doc.Events {
		byType[e.Type] = append(byType[e.Type], e)
	}
	if n := len(byType[obs.EventSessionOpen]); n != conns {
		t.Errorf("%d session_open events, want %d", n, conns)
	}
	if n := len(byType[obs.EventSessionClose]); n != conns {
		t.Errorf("%d session_close events, want %d", n, conns)
	}
	if n := len(byType[obs.EventDrainBegin]); n != 1 {
		t.Errorf("%d drain_begin events, want 1", n)
	}
	var closedBatches uint64
	closedSessions := map[uint64]bool{}
	for _, e := range byType[obs.EventSessionClose] {
		if e.Scheme != "universal" {
			t.Errorf("session_close for scheme %q", e.Scheme)
		}
		closedBatches += e.Batches
		closedSessions[e.Session] = true
	}
	for _, e := range byType[obs.EventSessionOpen] {
		if !closedSessions[e.Session] {
			t.Errorf("session %d opened but never closed", e.Session)
		}
	}
	if closedBatches != uint64(replies.Load()) {
		t.Errorf("session_close events account %d batches, clients got %d replies", closedBatches, replies.Load())
	}
}

// TestFaultPathLedger drills every way a batch frame can be answered — a
// reply, a Busy shed, a corrupted envelope and a codec panic — and checks
// one scrape, taken once the client holds every answer, counts each batch
// in exactly the stages it crossed: frame_read for every answered batch
// frame, admission for every admitted one, and codec_encode, phy_account,
// frame_write, bxtd_batches_total and bxtd_trace_spans_total for every
// reply. The Busy, the corrupted envelope and two batches on one stream
// arrive in one Write, so their answers are held and leave together; each
// reply's span must still be recorded once, under its own trace id.
func TestFaultPathLedger(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.MaxPending = 1
	cfg.AdmitTimeout = 50 * time.Millisecond
	cfg.FaultBudget = 1000
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.SetFaults(faults.MustNew(faults.Config{Seed: 11, PanicRate: 0.4}))
	block := make(chan struct{})
	var hold, release sync.Once
	unblock := func() { release.Do(func() { close(block) }) }
	srv.testHookBatch = func() { hold.Do(func() { <-block }) }
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { unblock(); srv.Close() })

	rng := rand.New(rand.NewSource(12))
	var replies, panics, busies, admitted int
	var replyTraces []uint64
	nextTrace := uint64(0x7ace0000)
	// batch builds a sealed Batch frame for stream sid under a fresh trace
	// id, returning the frame and the id.
	batch := func(sid uint32, id uint64) ([]byte, uint64) {
		nextTrace++
		body := trace.AppendTraceEnvelope(trace.AppendStreamID(nil, sid), id, nextTrace)
		body, err := trace.AppendBatch(body, makeTxns(rng, 1, 32), 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.SealBatchEnvelope(body[4:]); err != nil {
			t.Fatal(err)
		}
		frame, err := trace.AppendFrame(nil, trace.FrameBatch, body)
		if err != nil {
			t.Fatal(err)
		}
		return frame, nextTrace
	}
	// tally reads the answer to batch id of stream sid, sent under
	// traceID, and counts it.
	tally := func(r *rawClient, sid uint32, id, traceID uint64) {
		t.Helper()
		ft, body := r.recv()
		body = stripMux(t, sid, body)
		switch ft {
		case trace.FrameBatchReply:
			rid, rtrace, _, err := trace.OpenTraceEnvelope(body)
			if err != nil || rid != id || rtrace != traceID {
				t.Fatalf("reply for batch %d trace %#x, err %v; want batch %d trace %#x", rid, rtrace, err, id, traceID)
			}
			replies++
			admitted++
			replyTraces = append(replyTraces, traceID)
		case trace.FrameBatchError:
			if rid, _, msg, err := trace.ParseBatchError(body); err != nil || rid != id {
				t.Fatalf("BatchError %q for batch %d, err %v; want batch %d", msg, rid, err, id)
			}
			panics++
			admitted++
		case trace.FrameBusy:
			busies++
		default:
			t.Fatalf("got frame %#x (%q), want an answer to batch %d", ft, body, id)
		}
	}

	// The occupant's batch holds the only worker.
	occupant := dialRaw(t, srv.Addr(), "universal", 32)
	occFrame, occTrace := batch(0, 1)
	occupant.sendWire(occFrame)
	time.Sleep(100 * time.Millisecond)

	// One Write carries five batches: the first is shed with a Busy while
	// the occupant holds the worker, the second has a corrupted envelope
	// and is answered before admission, and stream 1 gets two in a row.
	burst := dialRaw(t, srv.Addr(), "universal", 32)
	openSibling(t, burst, 1, "universal", 32)
	type sent struct {
		sid         uint32
		id, traceID uint64
	}
	var wire []byte
	var burstSent []sent
	for _, b := range []struct {
		sid uint32
		id  uint64
	}{{0, 1}, {0, 2}, {1, 1}, {1, 2}, {0, 3}} {
		frame, traceID := batch(b.sid, b.id)
		if b.id == 2 && b.sid == 0 {
			frame[trace.FrameHeaderBytes+4+20] ^= 0x10 // inside the sealed payload
		}
		wire = append(wire, frame...)
		burstSent = append(burstSent, sent{b.sid, b.id, traceID})
	}
	burst.sendWire(wire)
	// Free the worker once the first batch is shed, so the rest can be
	// admitted; the tallies below count whatever each batch got.
	for deadline := time.Now().Add(5 * time.Second); srv.met.busyShed.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the burst's first batch was never shed")
		}
	}
	unblock()
	if ft, body := burst.recv(); ft != trace.FrameBusy {
		t.Fatalf("got frame %#x (%q), want Busy", ft, body)
	}
	busies++
	expectBatchError(t, burst, 2, "crc")
	for _, b := range burstSent[2:] {
		tally(burst, b.sid, b.id, b.traceID)
	}
	tally(occupant, 0, 1, occTrace)

	// One-transaction batches each roll the injector once: some panic.
	const drill = 12
	for id := uint64(2); id < 2+drill; id++ {
		frame, traceID := batch(0, id)
		occupant.sendWire(frame)
		tally(occupant, 0, id, traceID)
	}
	if replies == 0 || panics == 0 {
		t.Fatalf("drill gave %d replies and %d codec faults; the seed must give both", replies, panics)
	}

	samples := parseProm(t, httpGet(t, "http://"+srv.MetricsAddr()+"/metrics"))
	answered := 1 + len(burstSent) + drill
	stage := func(s obs.Stage) float64 {
		return one(t, samples, "bxtd_stage_seconds_count", map[string]string{"scheme": "universal", "stage": string(s)}).value
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"frame_read", stage(obs.StageFrameRead), float64(answered)},
		{"admission", stage(obs.StageAdmission), float64(admitted)},
		{"codec_encode", stage(obs.StageEncode), float64(replies)},
		{"phy_account", stage(obs.StageAccount), float64(replies)},
		{"frame_write", stage(obs.StageFrameWrite), float64(replies)},
		{"bxtd_batches_total", one(t, samples, "bxtd_batches_total", map[string]string{"scheme": "universal"}).value, float64(replies)},
		{"bxtd_trace_spans_total", one(t, samples, "bxtd_trace_spans_total", nil).value, float64(replies)},
		{"bxtd_transactions_total", one(t, samples, "bxtd_transactions_total", map[string]string{"scheme": "universal"}).value, float64(replies)},
		{"bxtd_busy_total", one(t, samples, "bxtd_busy_total", nil).value, float64(busies)},
		{"bxtd_codec_panics_total", one(t, samples, "bxtd_codec_panics_total", nil).value, float64(panics)},
		{"bxtd_poison_batches_total", one(t, samples, "bxtd_poison_batches_total", nil).value, float64(panics)},
		{"bxtd_batch_faults_total", one(t, samples, "bxtd_batch_faults_total", nil).value, float64(panics + 1)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	for _, id := range replyTraces {
		doc := getTrace(t, srv.MetricsAddr(), id)
		if len(doc.Spans) != 1 {
			t.Errorf("trace %#x: %d spans on /debug/trace, want 1", id, len(doc.Spans))
			continue
		}
		wrote := 0
		for _, st := range doc.Spans[0].Stages {
			if st.Stage == string(obs.StageFrameWrite) {
				wrote++
			}
		}
		if wrote != 1 {
			t.Errorf("trace %#x: span has %d frame_write stages, want 1", id, wrote)
		}
	}
}
