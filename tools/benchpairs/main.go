// Command benchpairs judges paired end-to-end benchmark runs of a parent
// commit and a change.
//
// It reads `bench -o` reports given in pairs, parent first, each pair run
// on one seed with the runs alternating which side goes first:
//
//	go run ./tools/benchpairs parent-1.json change-1.json parent-2.json change-2.json ...
//
// For every workload and metric the reports share, it prints each side's
// median and quartiles over the pairs, and how many pairs the change won
// (ties count for neither). A metric BENCHMARK.json names gets a verdict:
//
//   - "worse" when the change's median is worse than the parent's by more
//     than the metric's bound (a share of the parent's median, as
//     `bench -compare` reads it), or when the change lost at least nine
//     tenths of the pairs and its median trails by more than the parent's
//     interquartile range;
//   - "better" when the change won at least nine tenths of the pairs, its
//     median beats the parent's by more than the parent's interquartile
//     range, and the change failed no more batches on the workload than
//     the parent;
//   - "unresolved" when the parent's interquartile range, as a share of its
//     median, is wider than the bound, unless every change run beats every
//     parent run;
//   - "same" otherwise.
//
// With -append, the table is also added as one entry to a JSON history
// such as BENCH_trajectory.json, so a claim made from the runs is written
// down next to the numbers behind it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"github.com/hpca18/bxt/internal/report"
)

// benchReport mirrors the parts of a `bench -o` report benchpairs reads.
type benchReport struct {
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	NProc     int     `json:"nproc"`
	Workloads []struct {
		Workload string `json:"workload"`
		Failed   int    `json:"failed"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
	// Bound is how far the metric may worsen, as a share of the parent's
	// median; zero for a metric with no bound.
	Bound float64 `json:"bound"`
}

// spread is one side's median and quartiles over the pairs.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// row is one (workload, metric) verdict.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Parent   spread  `json:"parent"`
	Change   spread  `json:"change"`
	Wins     int     `json:"wins"`
	Pairs    int     `json:"pairs"`
	Verdict  string  `json:"verdict"`
	ChangePc float64 `json:"change_pct"`
}

// entry is the history record -append writes.
type entry struct {
	Time    string  `json:"time"`
	Kind    string  `json:"kind"`
	Note    string  `json:"note,omitempty"`
	NProc   int     `json:"nproc"`
	Seconds float64 `json:"seconds"`
	Seeds   []int64 `json:"seeds"`
	Rows    []row   `json:"rows"`
	// Failed is each workload's failed batches over all runs, parent and
	// change: a gain does not count when the change fails more.
	Failed map[string][2]int `json:"failed_batches"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration naming each metric's better direction")
	appendPath := fs.String("append", "", "add the table as one entry to this JSON history, e.g. BENCH_trajectory.json")
	note := fs.String("note", "", "what the pairs measure, recorded with -append")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 || len(paths)%2 != 0 {
		fmt.Fprintln(stderr, "benchpairs: give reports in pairs: parent change [parent change ...]")
		return 2
	}
	var bm benchmarkFile
	if err := readJSON(*benchPath, &bm); err != nil {
		fmt.Fprintln(stderr, "benchpairs:", err)
		return 1
	}
	reports := make([]benchReport, len(paths))
	for i, p := range paths {
		if err := readJSON(p, &reports[i]); err != nil {
			fmt.Fprintln(stderr, "benchpairs:", err)
			return 1
		}
	}
	e, err := judge(reports, bm)
	if err != nil {
		fmt.Fprintln(stderr, "benchpairs:", err)
		return 1
	}
	e.Note = *note
	e.Time = time.Now().UTC().Format(time.RFC3339)
	printTable(stdout, e)
	if *appendPath != "" {
		if err := report.AppendJSON(*appendPath, e); err != nil {
			fmt.Fprintln(stderr, "benchpairs:", err)
			return 1
		}
	}
	return 0
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

// judge builds the table from reports, parent and change alternating.
// Both runs of a pair must share their seed and length.
func judge(reports []benchReport, bm benchmarkFile) (entry, error) {
	gated := make(map[string]benchMetric)
	var order []string
	for _, m := range append(append([]benchMetric(nil), bm.EndToEnd...), bm.PerLayer...) {
		gated[m.Name] = m
		order = append(order, m.Name)
	}
	e := entry{Kind: "benchpairs", Failed: make(map[string][2]int)}
	type key struct{ workload, metric string }
	vals := make(map[key][2][]float64)
	units := make(map[key]string)
	for i := 0; i < len(reports); i += 2 {
		p, c := reports[i], reports[i+1]
		if p.Seed != c.Seed || p.Seconds != c.Seconds || p.Trace != c.Trace {
			return e, fmt.Errorf("pair %d: parent seed %d %gs trace %v, change seed %d %gs trace %v",
				i/2+1, p.Seed, p.Seconds, p.Trace, c.Seed, c.Seconds, c.Trace)
		}
		e.Seeds = append(e.Seeds, p.Seed)
		e.Seconds, e.NProc = p.Seconds, p.NProc
		for side, r := range []benchReport{p, c} {
			for _, w := range r.Workloads {
				f := e.Failed[w.Workload]
				f[side] += w.Failed
				e.Failed[w.Workload] = f
				for name, m := range w.Metrics {
					k := key{w.Workload, name}
					v := vals[k]
					v[side] = append(v[side], m.Value)
					vals[k] = v
					units[k] = m.Unit
				}
			}
		}
	}
	pairs := len(reports) / 2
	for k, v := range vals {
		if len(v[0]) != pairs || len(v[1]) != pairs {
			continue // not in every report
		}
		r := row{Workload: k.workload, Metric: k.metric, Unit: units[k], Pairs: pairs, Verdict: "-"}
		r.Parent, r.Change = spreadOf(v[0]), spreadOf(v[1])
		if r.Parent.Median != 0 {
			r.ChangePc = 100 * (r.Change.Median - r.Parent.Median) / r.Parent.Median
		}
		if m, ok := gated[k.metric]; ok {
			f := e.Failed[k.workload]
			r.Wins, r.Verdict = verdict(v[0], v[1], r.Parent, r.Change, m, f[1] <= f[0])
		}
		e.Rows = append(e.Rows, r)
	}
	rank := func(metric string) int {
		if i := slices.Index(order, metric); i >= 0 {
			return i
		}
		return len(order)
	}
	sort.Slice(e.Rows, func(i, j int) bool {
		a, b := e.Rows[i], e.Rows[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if ra, rb := rank(a.Metric), rank(b.Metric); ra != rb {
			return ra < rb
		}
		return a.Metric < b.Metric
	})
	return e, nil
}

// verdict judges the change's runs against the parent's, pair by pair, for
// metric m, returning the change's wins and the verdict the package comment
// describes. failedOK reports whether the change failed no more batches
// than the parent.
func verdict(parent, change []float64, ps, cs spread, m benchMetric, failedOK bool) (wins int, v string) {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	losses := 0
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	pairs := len(parent)
	gap, iqr := sign*(cs.Median-ps.Median), ps.Q3-ps.Q1
	bounded := m.Bound > 0
	switch {
	case bounded && -gap > m.Bound*math.Abs(ps.Median), 10*losses >= 9*pairs && -gap > iqr:
		return wins, "worse"
	case 10*wins >= 9*pairs && gap > iqr && failedOK:
		return wins, "better"
	case bounded && iqr > m.Bound*math.Abs(ps.Median) && !(failedOK && beatsAll(parent, change, sign)):
		return wins, "unresolved"
	}
	return wins, "same"
}

// beatsAll reports whether every change run is better than every parent
// run, higher being better when sign is positive.
func beatsAll(parent, change []float64, sign float64) bool {
	if sign > 0 {
		return slices.Min(change) > slices.Max(parent)
	}
	return slices.Max(change) < slices.Min(parent)
}

// spreadOf returns the quartiles of vs, interpolating between the sorted
// values.
func spreadOf(vs []float64) spread {
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return spread{Q1: q(0.25), Median: q(0.5), Q3: q(0.75)}
}

func printTable(w io.Writer, e entry) {
	fmt.Fprintf(w, "# %d pairs, seeds %v, %gs per run, nproc %d\n", len(e.Seeds), e.Seeds, e.Seconds, e.NProc)
	fmt.Fprintf(w, "%-18s %-28s %12s %12s %12s %12s %12s %12s %8s %6s %s\n",
		"workload", "metric", "parent_q1", "parent_med", "parent_q3", "change_q1", "change_med", "change_q3", "change", "wins", "verdict")
	for _, r := range e.Rows {
		fmt.Fprintf(w, "%-18s %-28s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%% %3d/%-2d %s\n",
			r.Workload, r.Metric, r.Parent.Q1, r.Parent.Median, r.Parent.Q3,
			r.Change.Q1, r.Change.Median, r.Change.Q3, r.ChangePc, r.Wins, r.Pairs, r.Verdict)
	}
	var failing []string
	for wl, f := range e.Failed {
		if f != [2]int{} {
			failing = append(failing, wl)
		}
	}
	sort.Strings(failing)
	for _, wl := range failing {
		fmt.Fprintf(w, "# %s: failed batches parent %d, change %d\n", wl, e.Failed[wl][0], e.Failed[wl][1])
	}
}
