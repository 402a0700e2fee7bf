package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/bus"
)

func statsOf(txns, bits, ones, toggles int) bus.Stats {
	return bus.Stats{Transactions: txns, DataBits: bits, DataOnes: ones, DataToggles: toggles}
}

// TestEnergyCounterWindow drives a counter with synthetic clocks: the
// cumulative totals must never decay, while the rolling window must drop
// buckets that age out and reclaim ring slots that wrap around.
func TestEnergyCounterWindow(t *testing.T) {
	m := NewEnergyMeter(15*time.Second, 3) // 5s slots
	c := m.Counter("universal")
	sec := int64(time.Second)

	c.observeAt(1*sec, statsOf(1, 100, 10, 5), statsOf(1, 100, 4, 2))
	c.observeAt(6*sec, statsOf(1, 100, 10, 5), statsOf(1, 100, 4, 2))

	s := c.snapshotAt(6 * sec)
	if s.Base.Transactions != 2 || s.Base.DataOnes != 20 {
		t.Fatalf("cumulative base = %+v, want 2 txns / 20 ones", s.Base)
	}
	if s.WinBase.Transactions != 2 {
		t.Fatalf("window base = %+v, want both observations in window", s.WinBase)
	}
	if s.Window != 15*time.Second {
		t.Fatalf("window = %v, want 15s", s.Window)
	}

	// 100s later every bucket has aged out of the window; the cumulative
	// totals survive.
	s = c.snapshotAt(100 * sec)
	if s.WinBase.Transactions != 0 || s.WinEnc.Transactions != 0 {
		t.Fatalf("window after expiry = %+v / %+v, want empty", s.WinBase, s.WinEnc)
	}
	if s.Base.Transactions != 2 {
		t.Fatalf("cumulative decayed: %+v", s.Base)
	}

	// A wrapped ring slot (slot 0 and slot 3 share index 0 with 3 buckets)
	// must reset, not accumulate the stale bucket.
	c.observeAt(16*sec, statsOf(1, 100, 10, 5), statsOf(1, 100, 4, 2)) // slot 3 -> index 0
	s = c.snapshotAt(16 * sec)
	if s.WinBase.Transactions != 2 { // slot 1 (t=6s) still in window, slot 0 evicted
		t.Fatalf("window after wrap = %+v, want 2 txns (slot 0 reset, slot 1 retained)", s.WinBase)
	}
}

// TestEnergyMeterEachOrder locks the deterministic exposition order.
func TestEnergyMeterEachOrder(t *testing.T) {
	m := NewEnergyMeter(0, 0)
	for _, k := range []string{"zeta", "alpha", "mid"} {
		m.Counter(k)
	}
	var got []string
	m.Each(func(k string, _ *EnergyCounter) { got = append(got, k) })
	if strings.Join(got, ",") != "alpha,mid,zeta" {
		t.Fatalf("Each order = %v, want sorted", got)
	}
}

// testEstimator is a two-component toy model with exactly representable
// coefficients, so expected joules compare with ==.
func testEstimator(s bus.Stats) []EnergyComponent {
	return []EnergyComponent{
		{Name: "termination", Joules: float64(s.Ones()) * 0.5},
		{Name: "switching", Joules: float64(s.Toggles()) * 0.25},
	}
}

// TestWriteEnergyMetrics renders a meter through the shared Expo registry
// and reads every family back through the text-format parser: the
// wire counters, per-component joules, savings, per-byte intensity, and
// window gauges must all round-trip.
func TestWriteEnergyMetrics(t *testing.T) {
	m := NewEnergyMeter(0, 0)
	c := m.Counter("universal")
	c.Observe(statsOf(4, 8000, 1000, 600), statsOf(4, 8000, 400, 200))

	var buf bytes.Buffer
	WriteEnergyMetrics(Expo{W: &buf, Prefix: "bxtd_"}, "scheme", m, testEstimator)
	points, err := ParsePromText(&buf)
	if err != nil {
		t.Fatalf("ParsePromText: %v", err)
	}

	if v := SumMetric(points, "bxtd_wire_ones_total", "scheme", "universal", "leg", "baseline"); v != 1000 {
		t.Errorf("baseline wire ones = %g, want 1000", v)
	}
	if v := SumMetric(points, "bxtd_wire_toggles_total", "leg", "encoded"); v != 200 {
		t.Errorf("encoded wire toggles = %g, want 200", v)
	}
	if v := SumMetric(points, "bxtd_wire_bits_total", "leg", "baseline"); v != 8000 {
		t.Errorf("baseline wire bits = %g, want 8000", v)
	}
	term := FindMetric(points, "bxtd_energy_joules_total", "leg", "baseline", "component", "termination")
	if term == nil || term.Value != 500 {
		t.Errorf("baseline termination joules = %+v, want 500", term)
	}
	// baseline = 1000*0.5 + 600*0.25 = 650; encoded = 400*0.5 + 200*0.25 = 250
	saved := FindMetric(points, "bxtd_energy_saved_joules_total", "scheme", "universal")
	if saved == nil || saved.Value != 400 {
		t.Errorf("saved joules = %+v, want 400", saved)
	}
	perByte := FindMetric(points, "bxtd_energy_joules_per_byte", "leg", "encoded")
	if perByte == nil || perByte.Value != 250/1000.0 {
		t.Errorf("encoded joules/byte = %+v, want 0.25", perByte)
	}
	watts := FindMetric(points, "bxtd_energy_window_watts", "scheme", "universal")
	if watts == nil || watts.Value != 250/DefaultEnergyWindow.Seconds() {
		t.Errorf("window watts = %+v, want %g", watts, 250/DefaultEnergyWindow.Seconds())
	}
	ratio := FindMetric(points, "bxtd_energy_window_savings_ratio", "scheme", "universal")
	if ratio == nil || ratio.Value != 1-250.0/650.0 {
		t.Errorf("window savings ratio = %+v, want %g", ratio, 1-250.0/650.0)
	}
}

// TestExpoFloatRoundTrip is the property the energy-differential test
// leans on: %g exposition of a float64 parses back bit-identical.
func TestExpoFloatRoundTrip(t *testing.T) {
	vals := []float64{0.1 + 0.2, 1e-13, 123456789.123456, 650.0000000001}
	var buf bytes.Buffer
	e := Expo{W: &buf, Prefix: "x_"}
	for _, v := range vals {
		e.Float("f", "", v)
	}
	points, err := ParsePromText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(vals) {
		t.Fatalf("parsed %d points, want %d", len(points), len(vals))
	}
	for i, v := range vals {
		if points[i].Value != v {
			t.Errorf("value %d: %v does not round-trip (got %v)", i, v, points[i].Value)
		}
	}
}

// TestParsePromText covers the parser's label handling and error paths.
func TestParsePromText(t *testing.T) {
	doc := `# HELP x_total a counter
# TYPE x_total counter
x_total{scheme="a b",path="c\\d\"e"} 42
x_plain 7

x_neg{le="+Inf"} -1.5e3
`
	points, err := ParsePromText(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ParsePromText: %v", err)
	}
	if len(points) != 3 {
		t.Fatalf("parsed %d points, want 3", len(points))
	}
	if points[0].Labels["scheme"] != "a b" || points[0].Labels["path"] != `c\d"e` {
		t.Errorf("labels = %v, escapes mishandled", points[0].Labels)
	}
	if points[1].Name != "x_plain" || points[1].Value != 7 {
		t.Errorf("plain sample = %+v", points[1])
	}
	if points[2].Label("le") != "+Inf" || points[2].Value != -1500 {
		t.Errorf("exponent sample = %+v", points[2])
	}
	if _, err := ParsePromText(strings.NewReader("bad line without value\n")); err == nil {
		t.Error("malformed line parsed without error")
	}
	if _, err := ParsePromText(strings.NewReader("x{a=\"unterminated} 1\n")); err == nil {
		t.Error("unterminated label block parsed without error")
	}
}

// TestEventFiltering exercises the /debug/events query surface: severity
// stamping, kind and min_level filters, trace correlation, and the 400 on
// a bad severity.
func TestEventFiltering(t *testing.T) {
	b := NewEventBuffer(16)
	b.Add(Event{Type: EventSessionOpen, Session: 1})
	b.Add(Event{Type: EventSlowBatch, Session: 1, TraceID: 0xabc})
	b.Add(Event{Type: EventBatchFault, Session: 1, TraceID: 0xabc})
	b.Add(Event{Type: EventCodecPanic, Session: 2})

	get := func(query string) ([]Event, int) {
		rec := httptest.NewRecorder()
		b.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events"+query, nil))
		if rec.Code != 200 {
			return nil, rec.Code
		}
		var doc struct {
			Total  uint64  `json:"total"`
			Events []Event `json:"events"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("decoding events: %v", err)
		}
		return doc.Events, rec.Code
	}

	all, _ := get("")
	if len(all) != 4 {
		t.Fatalf("unfiltered events = %d, want 4", len(all))
	}
	if all[0].Level != LevelInfo || all[1].Level != LevelDebug || all[2].Level != LevelWarn || all[3].Level != LevelError {
		t.Errorf("default severities wrong: %v %v %v %v", all[0].Level, all[1].Level, all[2].Level, all[3].Level)
	}

	if evs, _ := get("?min_level=warn"); len(evs) != 2 {
		t.Errorf("min_level=warn kept %d events, want 2", len(evs))
	}
	if evs, _ := get("?min_level=warning"); len(evs) != 2 {
		t.Errorf(`min_level=warning (alias) kept %d events, want 2`, len(evs))
	}
	if evs, _ := get("?kind=" + EventSessionOpen + "," + EventCodecPanic); len(evs) != 2 {
		t.Errorf("kind filter kept %d events, want 2", len(evs))
	}
	if evs, _ := get("?trace=0xabc"); len(evs) != 2 {
		t.Errorf("trace filter kept %d events, want 2", len(evs))
	}
	if evs, _ := get("?kind=" + EventSlowBatch + "&min_level=debug&trace=0xabc"); len(evs) != 1 {
		t.Errorf("combined filters kept %d events, want 1", len(evs))
	}
	if _, code := get("?min_level=loud"); code != 400 {
		t.Errorf("bad min_level answered %d, want 400", code)
	}
}

// TestSpanRing covers the span value semantics and the ring: stage
// capacity, Find by trace id, eviction accounting, and the JSON handler's
// filters and exemplar section.
func TestSpanRing(t *testing.T) {
	var sp Span
	sp.Reset(0x1234, 7, 3, "universal")
	for i := 0; i < SpanStages+4; i++ {
		sp.Observe(StageEncode, time.Millisecond)
	}
	if len(sp.Stages()) != SpanStages {
		t.Fatalf("span holds %d stages, want capped at %d", len(sp.Stages()), SpanStages)
	}
	if sp.Total() != SpanStages*time.Millisecond {
		t.Fatalf("Total = %v, want %v", sp.Total(), SpanStages*time.Millisecond)
	}

	ring := NewTraceRing(16)
	for i := 0; i < 40; i++ {
		var s Span
		s.Reset(uint64(0x1000+i), uint64(i), uint64(i%4), "universal")
		s.Observe(StageFrameRead, time.Duration(i)*time.Microsecond)
		ring.Add(&s)
	}
	if ring.Total() != 40 {
		t.Fatalf("Total = %d, want 40", ring.Total())
	}
	if got := ring.Find(0x1000 + 39); len(got) != 1 || got[0].BatchID != 39 {
		t.Fatalf("Find(latest) = %+v, want the one span", got)
	}
	if got := ring.Find(0x1000); len(got) != 0 {
		t.Fatalf("Find(evicted) returned %d spans, want 0", len(got))
	}

	stages := NewHistogramTracer(nil)
	stages.Hist("universal", StageEncode).ObserveEx(0.5, 0x1027)
	rec := httptest.NewRecorder()
	TraceHandler(ring, stages).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?trace=0x1027", nil))
	if rec.Code != 200 {
		t.Fatalf("trace handler answered %d", rec.Code)
	}
	var doc struct {
		Total     uint64 `json:"total"`
		Spans     []json.RawMessage
		Sessions  []json.RawMessage
		Exemplars []struct {
			TraceID string `json:"trace_id"`
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decoding trace doc: %v", err)
	}
	if doc.Total != 40 || len(doc.Spans) != 1 || len(doc.Sessions) != 1 {
		t.Fatalf("filtered doc: total %d, %d spans, %d sessions; want 40/1/1",
			doc.Total, len(doc.Spans), len(doc.Sessions))
	}
	if len(doc.Exemplars) != 1 || doc.Exemplars[0].TraceID != FormatTraceID(0x1027) {
		t.Fatalf("exemplars = %+v, want one for trace 0x1027", doc.Exemplars)
	}

	rec = httptest.NewRecorder()
	TraceHandler(ring, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?trace=nope", nil))
	if rec.Code != 400 {
		t.Fatalf("bad trace id answered %d, want 400", rec.Code)
	}
}

// TestTraceIDFormat locks the id rendering the whole surface shares.
func TestTraceIDFormat(t *testing.T) {
	if got := FormatTraceID(0xabc); got != "0x0000000000000abc" {
		t.Fatalf("FormatTraceID = %q", got)
	}
	for _, in := range []string{"0x0000000000000abc", "2748"} {
		id, err := ParseTraceID(in)
		if err != nil || id != 0xabc {
			t.Errorf("ParseTraceID(%q) = (%#x, %v)", in, id, err)
		}
	}
	if _, err := ParseTraceID("xyz"); err == nil {
		t.Error("ParseTraceID accepted garbage")
	}
}

// TestHistogramExemplar verifies the slow-batch exemplar tracks the
// largest traced observation and ignores untraced ones.
func TestHistogramExemplar(t *testing.T) {
	h := NewLatencyHistogram()
	h.ObserveEx(0.010, 0x1)
	h.ObserveEx(0.500, 0x2)
	h.ObserveEx(0.100, 0x3)
	h.Observe(2.0) // untraced: never an exemplar
	sec, id := h.Exemplar()
	if sec != 0.5 || id != 0x2 {
		t.Fatalf("Exemplar = (%g, %#x), want (0.5, 0x2)", sec, id)
	}
}

// TestTelemetryZeroAlloc pins the per-batch observability cost: recording
// a span into the ring, folding wire stats into an energy counter, and
// recording a span's stages into their histograms must all be
// allocation-free.
func TestTelemetryZeroAlloc(t *testing.T) {
	ring := NewTraceRing(64)
	var sp Span
	if avg := testing.AllocsPerRun(200, func() {
		sp.Reset(0xbeef, 1, 2, "universal")
		sp.Observe(StageFrameRead, time.Millisecond)
		sp.Observe(StageEncode, time.Millisecond)
		sp.Observe(StageFrameWrite, time.Millisecond)
		ring.Add(&sp)
	}); avg != 0 {
		t.Errorf("span record allocates %.1f times, want 0", avg)
	}

	m := NewEnergyMeter(0, 0)
	c := m.Counter("universal")
	base, enc := statsOf(1, 8192, 900, 500), statsOf(1, 8192, 300, 100)
	if avg := testing.AllocsPerRun(200, func() { c.Observe(base, enc) }); avg != 0 {
		t.Errorf("energy observe allocates %.1f times, want 0", avg)
	}

	set := NewHistogramTracer(nil).Set("universal", StageFrameRead, StageEncode, StageFrameWrite)
	if avg := testing.AllocsPerRun(200, func() { set.Record(&sp) }); avg != 0 {
		t.Errorf("recording a span's stages allocates %.1f times, want 0", avg)
	}
}

// TestStageSetRecord checks a span's stages reach the histograms of the
// set that holds them, once each, with the span's trace id as exemplar,
// and that a set renders its histograms from the moment it is resolved.
func TestStageSetRecord(t *testing.T) {
	tr := NewHistogramTracer(nil)
	set := tr.Set("bdenc", StageFrameRead, StageAdmission, StageFrameWrite)
	var n int
	tr.Each(func(string, Stage, *Histogram) { n++ })
	if n != 3 {
		t.Fatalf("a fresh set renders %d histograms, want 3", n)
	}

	var sp Span
	sp.Reset(0x77, 1, 1, "bdenc")
	sp.Observe(StageFrameRead, 2*time.Millisecond)
	sp.Observe(StageEncode, time.Millisecond) // not in the set
	sp.Observe(StageFrameWrite, 3*time.Millisecond)
	set.Record(&sp)
	sp.Reset(0, 2, 1, "bdenc") // a damaged envelope: no trace id
	sp.Observe(StageFrameRead, time.Second)
	set.Record(&sp)

	for _, c := range []struct {
		stage Stage
		count uint64
		ex    uint64
	}{
		{StageFrameRead, 2, 0x77},
		{StageAdmission, 0, 0},
		{StageFrameWrite, 1, 0x77},
	} {
		h := tr.Hist("bdenc", c.stage)
		if got := h.Count(); got != c.count {
			t.Errorf("%s count = %d, want %d", c.stage, got, c.count)
		}
		if _, id := h.Exemplar(); id != c.ex {
			t.Errorf("%s exemplar = %#x, want %#x", c.stage, id, c.ex)
		}
	}
	if sec, _ := tr.Hist("bdenc", StageFrameWrite).Exemplar(); sec != 0.003 {
		t.Errorf("frame_write exemplar = %gs, want 0.003s", sec)
	}
}

// TestTelemetryRaceStress hammers the span ring, energy counter, and event
// buffer from concurrent writers and readers; it exists to run under
// -race, where any unsynchronized access in the telemetry hot paths fails
// the build.
func TestTelemetryRaceStress(t *testing.T) {
	ring := NewTraceRing(32)
	m := NewEnergyMeter(time.Second, 4)
	ev := NewEventBuffer(32)
	const writers, iters = 8, 500

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := m.Counter("universal")
			var sp Span
			for i := 0; i < iters; i++ {
				sp.Reset(uint64(w<<16|i), uint64(i), uint64(w), "universal")
				sp.Observe(StageEncode, time.Microsecond)
				ring.Add(&sp)
				c.Observe(statsOf(1, 64, 8, 4), statsOf(1, 64, 3, 1))
				ev.Add(Event{Type: EventSlowBatch, Session: uint64(w), TraceID: uint64(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf bytes.Buffer
		for i := 0; i < 50; i++ {
			ring.Snapshot()
			ring.Find(1)
			ev.Snapshot()
			buf.Reset()
			WriteEnergyMetrics(Expo{W: &buf, Prefix: "x_"}, "scheme", m, testEstimator)
		}
	}()
	wg.Wait()
	<-done

	if ring.Total() != writers*iters {
		t.Fatalf("ring total = %d, want %d", ring.Total(), writers*iters)
	}
	if ev.Total() != writers*iters {
		t.Fatalf("event total = %d, want %d", ev.Total(), writers*iters)
	}
	s := m.Counter("universal").Snapshot()
	if s.Base.Transactions != writers*iters {
		t.Fatalf("energy base txns = %d, want %d", s.Base.Transactions, writers*iters)
	}
}
