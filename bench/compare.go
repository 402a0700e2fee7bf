package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchmarkFile is BENCHMARK.json: -compare reads the bounds, and the
// tests check the names and units against the program's.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare prints one row per (metric, workload) present in both
// reports, judging b against a with the bounds BENCHMARK.json gives its
// end-to-end metrics; a metric it does not gate gets no verdict. It exits 1
// when any row is worse.
func runCompare(aPath, bPath, benchPath string, stdout, stderr io.Writer) int {
	var a, b report
	var bm benchmarkFile
	for _, f := range []struct {
		path string
		v    any
	}{{aPath, &a}, {bPath, &b}, {benchPath, &bm}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	bounds := make(map[string]float64)
	for _, m := range bm.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Fprintf(stdout, "# a: %s seed=%d rounds=%d go=%s\n# b: %s seed=%d rounds=%d go=%s\n",
		aPath, a.Seed, a.Rounds, a.Go, bPath, b.Seed, b.Rounds, b.Go)
	fmt.Fprintf(stdout, "%-18s %-26s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	worse := 0
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(r workloadResult) bool { return r.Workload == wa.Workload })
		if i < 0 {
			continue
		}
		wb := b.Workloads[i]
		for _, m := range roundMetrics {
			ma, okA := wa.Metrics[m.name]
			mb, okB := wb.Metrics[m.name]
			if !okA || !okB {
				continue
			}
			v, boundCol := "ungated", "-"
			if bound, ok := bounds[m.name]; ok {
				v, boundCol = verdict(ma, mb, m.higherBetter, bound), fmt.Sprintf("%.1f%%", 100*bound)
			}
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(stdout, "%-18s %-26s %14.4f %14.4f %+7.2f%% %7.2f%% %6s  %s\n",
				wa.Workload, m.name, ma.Value, mb.Value, 100*worsening(ma.Value, mb.Value, m.higherBetter),
				100*max(spread(ma.Rounds), spread(mb.Rounds)), boundCol, v)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// verdict judges b against a: worse or better when the medians differ by
// more than the bound, same otherwise. When either side's rounds spread
// wider than the bound the difference cannot be told from noise, and the
// row is unresolved unless every round of b beats every round of a.
func verdict(a, b metricValue, higherBetter bool, bound float64) string {
	if max(spread(a.Rounds), spread(b.Rounds)) > bound {
		if beatsAll(b.Rounds, a.Rounds, higherBetter) {
			return "better"
		}
		return "unresolved"
	}
	switch d := worsening(a.Value, b.Value, higherBetter); {
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	default:
		return "same"
	}
}

// worsening is b's change from a as a share of a, positive when worse.
func worsening(a, b float64, higherBetter bool) float64 {
	d := b - a
	if higherBetter {
		d = -d
	}
	if a == 0 {
		if d == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(a)
}

// spread is the distance between the rounds' first and third quartiles as
// a share of their median, with the quartiles Python's
// statistics.quantiles(rounds, n=4) gives.
func spread(rounds []float64) float64 {
	n := len(rounds)
	m := median(rounds)
	if n < 2 || m == 0 {
		return 0
	}
	s := slices.Clone(rounds)
	slices.Sort(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}

// beatsAll reports whether every value of b is better than every value of a.
func beatsAll(b, a []float64, higherBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if higherBetter {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
