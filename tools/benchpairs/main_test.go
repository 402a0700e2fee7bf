package main

import (
	"encoding/json"
	"fmt"
	"testing"
)

// pairReports builds parent/change report pairs for one workload whose
// setup_s reads parent[i] and change[i] in pair i.
func pairReports(t *testing.T, parent, change []float64) []benchReport {
	t.Helper()
	var out []benchReport
	for i := range parent {
		for _, v := range []float64{parent[i], change[i]} {
			var r benchReport
			raw := fmt.Sprintf(`{"seed": %d, "seconds": 20, "workloads": [{"workload": "w", "failed": 0,
				"metrics": {"setup_s": {"value": %g, "unit": "s"}, "odd": {"value": 1, "unit": "x"}}}]}`, i+1, v)
			if err := json.Unmarshal([]byte(raw), &r); err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
	}
	return out
}

// TestJudge pins the verdicts: a gain needs nine tenths of the pairs, a
// median gap wider than the parent's interquartile range and no more failed
// batches than the parent; a median worse by more than the bound is a loss
// however few pairs lost; a parent spread wider than the bound leaves the
// metric unresolved unless every change run beats every parent run; ties
// count for neither side; a metric BENCHMARK.json does not name gets no
// verdict.
func TestJudge(t *testing.T) {
	bm := benchmarkFile{EndToEnd: []benchMetric{{Name: "setup_s", Better: "lower", Bound: 0.25}}}
	steady := []float64{10, 11, 12, 10, 11, 12, 10, 11, 12, 11}
	wide := []float64{8, 10, 12, 14, 16, 8, 10, 12, 14, 16}
	split := []float64{10, 20, 10, 20, 10, 20, 10, 20, 10, 20}
	for _, tc := range []struct {
		name    string
		parent  []float64
		change  []float64
		failed  int // the change's failed batches, against the parent's 0
		wins    int
		verdict string
	}{
		{"clear gain", steady, []float64{8, 8, 9, 8, 8, 9, 8, 8, 9, 12}, 0, 9, "better"},
		{"gain with more failures", steady, []float64{8, 8, 9, 8, 8, 9, 8, 8, 9, 12}, 1, 9, "same"},
		{"gap inside the spread", steady, []float64{9.9, 10.9, 11.9, 9.9, 10.9, 11.9, 9.9, 10.9, 11.9, 10.9}, 0, 10, "same"},
		{"ties win nothing", steady, []float64{10, 11, 12, 10, 11, 12, 10, 11, 12, 8}, 0, 1, "same"},
		{"clear loss", steady, []float64{14, 14, 14, 14, 14, 14, 14, 14, 14, 14}, 0, 0, "worse"},
		{"loss beyond the bound in 7 of 10", steady, []float64{14.3, 14.3, 14.3, 14.3, 14.3, 14.3, 14.3, 9, 9, 9}, 0, 3, "worse"},
		{"parent wider than the bound", wide, []float64{7.9, 9.9, 11.9, 13.9, 15.9, 7.9, 9.9, 11.9, 13.9, 15.9}, 0, 10, "unresolved"},
		{"every change run beats every parent run", wide, []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, 0, 10, "better"},
		{"beats every run, with more failures", wide, []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, 2, 10, "unresolved"},
		{"beats every run by less than the spread", split, []float64{9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9}, 0, 10, "same"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reports := pairReports(t, tc.parent, tc.change)
			reports[1].Workloads[0].Failed = tc.failed
			e, err := judge(reports, bm)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.Rows) != 2 {
				t.Fatalf("%d rows, want setup_s and odd", len(e.Rows))
			}
			r := e.Rows[0]
			if r.Metric != "setup_s" || r.Wins != tc.wins || r.Verdict != tc.verdict {
				t.Fatalf("row %+v, want setup_s with %d wins, verdict %s", r, tc.wins, tc.verdict)
			}
			if odd := e.Rows[1]; odd.Metric != "odd" || odd.Verdict != "-" {
				t.Fatalf("ungated row %+v", odd)
			}
			if f := e.Failed["w"]; f != [2]int{0, tc.failed} {
				t.Fatalf("failed batches %v, want [0 %d]", f, tc.failed)
			}
		})
	}

	e, err := judge(pairReports(t, steady, steady), bm)
	if err != nil {
		t.Fatal(err)
	}
	if p := e.Rows[0].Parent; p.Median != 11 || p.Q1 != 10.25 || p.Q3 != 11.75 {
		t.Fatalf("parent spread %+v, want q1 10.25, median 11, q3 11.75", p)
	}

	reports := pairReports(t, steady[:2], steady[:2])
	reports[1].Seed = 7
	if _, err := judge(reports, bm); err == nil {
		t.Fatal("pair of two seeds accepted")
	}
}
