package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	var bm benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestRuns drives every workload through one short untraced round and then
// a short traced run on the same seed. No batch may fail, every metric
// BENCHMARK.json names must be reported, the energy figure must repeat
// exactly, and the traced run must write its spans.
func TestRuns(t *testing.T) {
	bm := readBenchmark(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	opt := options{workload: "all", seed: 7, seconds: 0.1, rounds: 1, traceOut: out}
	plain, err := runBench(opt, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	opt.trace = true
	traced, err := runBench(opt, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Workloads) != len(workloads) || len(traced.Workloads) != len(workloads) {
		t.Fatalf("%d and %d workloads reported, want %d", len(plain.Workloads), len(traced.Workloads), len(workloads))
	}
	for i, res := range plain.Workloads {
		tr := traced.Workloads[i]
		for _, r := range []workloadResult{res, tr} {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: %d of %d batches failed: %s", r.Workload, r.Failed, r.Attempted, r.FirstError)
			}
		}
		for _, m := range bm.EndToEnd {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: metric %s missing", res.Workload, m.Name)
			}
		}
		for _, m := range bm.PerLayer {
			if _, ok := tr.Layers[m.Name]; !ok {
				t.Errorf("%s: layer metric %s missing", tr.Workload, m.Name)
			}
		}
		if a, b := res.Metrics["energy_saved_pct"].Value, tr.Metrics["energy_saved_pct"].Value; a != b {
			t.Errorf("%s: energy_saved_pct %v then %v on one seed", res.Workload, a, b)
		}
	}
	var spans struct {
		Spans []span `json:"spans"`
	}
	if err := readJSON(out, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans.Spans) == 0 {
		t.Error("trace.json holds no spans")
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the program in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bm := readBenchmark(t)
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for _, w := range bm.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
	gated, ungated := make(map[string]string), make(map[string]string)
	for _, m := range roundMetrics {
		if m.gated {
			gated[m.name] = m.unit
		} else {
			ungated[m.name] = m.unit
		}
	}
	for _, m := range layerMetrics {
		ungated[m.name] = m.unit
	}
	if len(bm.EndToEnd) != len(gated) || len(bm.PerLayer) != len(ungated) {
		t.Errorf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(bm.EndToEnd), len(bm.PerLayer), len(gated), len(ungated))
	}
	for _, m := range bm.EndToEnd {
		if u, ok := gated[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s (%s): the program gates %v, unit %q", m.Name, m.Unit, ok, u)
		}
		i := slices.IndexFunc(roundMetrics, func(r roundMetric) bool { return r.name == m.Name })
		if i >= 0 && (m.Better == "higher") != roundMetrics[i].higherBetter {
			t.Errorf("end-to-end metric %s: BENCHMARK.json says %s is better", m.Name, m.Better)
		}
	}
	for _, m := range bm.PerLayer {
		if u, ok := ungated[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s (%s): the program reports %v, unit %q", m.Name, m.Unit, ok, u)
		}
	}
}

func TestVerdict(t *testing.T) {
	mv := func(v float64, rounds ...float64) metricValue { return metricValue{Value: v, Rounds: rounds} }
	for _, tc := range []struct {
		name   string
		a, b   metricValue
		higher bool
		bound  float64
		want   string
	}{
		{"within bound", mv(100, 99, 100, 101), mv(104, 103, 104, 105), false, 0.1, "same"},
		{"slower", mv(100, 99, 100, 101), mv(120, 119, 120, 121), false, 0.1, "worse"},
		{"faster", mv(100, 99, 100, 101), mv(80, 79, 80, 81), false, 0.1, "better"},
		{"more throughput", mv(100, 99, 100, 101), mv(120, 119, 120, 121), true, 0.1, "better"},
		{"noisy", mv(100, 80, 100, 120), mv(115, 110, 115, 140), false, 0.1, "unresolved"},
		{"noisy but every round better", mv(100, 90, 100, 120), mv(60, 50, 60, 70), false, 0.1, "better"},
		{"exact, changed", mv(3.2), mv(3.1), true, 0, "worse"},
		{"exact, equal", mv(3.2), mv(3.2), true, 0, "same"},
	} {
		if got := verdict(tc.a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSpreadMatchesPython pins spread to the quartiles Python's
// statistics.quantiles(xs, n=4) gives, the statistic the bounds are set by.
func TestSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2}, 1},
		{[]float64{3, 1, 2}, 1},
		{[]float64{5, 1, 4, 2, 3}, 1},
		{[]float64{10, 12, 9, 30, 11, 10.5, 9.7, 50}, 1.4627906976744187},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
