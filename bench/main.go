// Command bench is bxt's end-to-end serving benchmark. It stands up bxtd,
// an optional bxtproxy and the Go clients in one process over loopback TCP,
// drives closed-loop BXTP traffic through them, checks every reply, and
// reports end-to-end metrics per workload, or with -trace 1 the per-layer
// metrics of a traced run. See README.md for the workloads, the metrics and
// how to compare two runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/obs"
)

// roundMetrics are what every untraced round measures. The gated ones are
// BENCHMARK.json's end-to-end metrics and fill the closing line of an
// untraced run. The timing metrics drift by more than any bound
// BENCHMARK.json may set on a shared host (README.md), so BENCHMARK.json
// lists them as per-layer metrics and a traced run reports them.
var roundMetrics = []roundMetric{
	{"throughput_batches_per_s", "batches/s", true, false},
	{"latency_p50_us", "us", false, false},
	{"latency_p99_us", "us", false, false},
	{"cpu_us_per_batch", "us", false, false},
	{"energy_saved_pct", "%", true, true},
	{"heap_peak_mb", "MB", false, true},
	{"setup_s", "s", false, true},
}

type roundMetric struct {
	name, unit   string
	higherBetter bool
	gated        bool
}

type options struct {
	workload string
	seed     int64
	seconds  float64 // measured seconds per workload
	rounds   int     // per workload in an untraced run
	trace    bool
	out      string // report file, or "" for none
	traceOut string // where a traced run writes its spans
}

// metricValue is one metric's median and the per-round values behind it.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

type workloadResult struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// LatencySamples is each round's count of timed batches.
	LatencySamples []uint64 `json:"latency_samples"`
	// LatencyP999 is each round's value, informational: it varies too much
	// between runs to be a metric.
	LatencyP999 []float64              `json:"latency_p999_us"`
	Metrics     map[string]metricValue `json:"metrics"`
	Layers      map[string]metricValue `json:"layers,omitempty"`
	// FirstError is the first failed batch's error, if any failed.
	FirstError string `json:"first_error,omitempty"`
}

// report is the full record of one run, stamped so every number can be
// traced back to how it was made.
type report struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Rounds     int              `json:"rounds"`
	Trace      bool             `json:"trace"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Go         string           `json:"go"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{rounds: 8, traceOut: ".bench_build/trace.json"}
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&opt.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&opt.out, "o", "", "write the full JSON report to this file")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	opt.trace = traceFlag != 0
	if fs.NArg() != 0 || opt.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	rep, err := runBench(opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, rep)
	if opt.out != "" {
		if err := writeJSON(opt.out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line := resultLine(rep)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if line.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %d batches failed\n", line.Failed)
		return 1
	}
	return 0
}

// runBench runs the selected workloads. Untraced runs interleave them:
// round r starts a fresh tier for every workload, in an order rotated by r,
// so slow drift of the host spreads over all workloads instead of landing on
// one.
func runBench(opt options, log io.Writer) (*report, error) {
	ws := workloads
	if opt.workload != "all" {
		w, ok := workloadByName(opt.workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", opt.workload)
		}
		ws = []workloadSpec{w}
	}
	rep := &report{
		Seed: opt.seed, Seconds: opt.seconds, Rounds: opt.rounds, Trace: opt.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
	}
	ins := make([]*inputs, len(ws))
	for i, w := range ws {
		var err error
		if ins[i], err = makeInputs(w, opt.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	window := time.Duration(opt.seconds / float64(opt.rounds) * float64(time.Second))
	if opt.trace {
		rep.Rounds = 1
		spans := newSpanLog()
		for i, w := range ws {
			res, err := traceWorkload(w, ins[i], time.Duration(opt.seconds*float64(time.Second)), spans)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.Workloads = append(rep.Workloads, res)
		}
		return rep, spans.write(opt.traceOut, rep)
	}
	rounds := make([][]roundResult, len(ws))
	for r := 0; r < opt.rounds; r++ {
		for k := range ws {
			i := (r + k) % len(ws)
			rr, err := runRound(ws[i], ins[i], window, nil)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", ws[i].name, r, err)
			}
			fmt.Fprintf(log, "%s round %d: p50 %.1f us, %d batches\n", ws[i].name, r, rr.win.lat.quantile(0.5)/1e3, rr.win.batches)
			rounds[i] = append(rounds[i], rr)
		}
	}
	for i, w := range ws {
		rep.Workloads = append(rep.Workloads, summarize(w.name, rounds[i]))
	}
	return rep, nil
}

// roundResult is one round: set up a fresh tier, warm it, measure, tear down.
type roundResult struct {
	setup     time.Duration
	win       window
	attempted int
	failed    int
	err       error
	basePJ    float64
	encPJ     float64
	retries   uint64
	busy      uint64
	epochs    uint64
	// stages are the tier's /metrics stage means over the window, in
	// nanoseconds; traced rounds only.
	stages map[string]float64
}

// runRound runs one round of w for d. A non-nil spans makes it the traced
// round: client tracing is on, every call records a span, and the tier's
// stage histograms are scraped around the window.
func runRound(w workloadSpec, in *inputs, d time.Duration, spans *spanLog) (roundResult, error) {
	var rr roundResult
	var ccfg client.Config
	if spans != nil {
		ccfg = client.Config{Tracer: obs.NewHistogramTracer(nil), Trace: obs.NewTraceRing(4096)}
	}
	runtime.GC() // the previous tier's garbage must not count in this round's heap
	start := time.Now()
	t, err := startTier(w, in, ccfg)
	if err != nil {
		return rr, err
	}
	rr.setup = time.Since(start)
	defer t.close()
	drive(t.sessions, time.Now().Add(d/8), 0)
	var before map[string]stageSum
	if spans != nil {
		for _, s := range t.sessions {
			s.spans = spans
		}
		if before, err = scrapeStages(t.srv.MetricsAddr(), "bxtd_stage_seconds"); err != nil {
			return rr, err
		}
	}
	if rr.win, err = measure(t, d); err != nil {
		return rr, err
	}
	if spans != nil {
		after, err := scrapeStages(t.srv.MetricsAddr(), "bxtd_stage_seconds")
		if err != nil {
			return rr, err
		}
		rr.stages = stageMeans(before, after)
	}
	rr.failed, rr.err = t.failures()
	for _, s := range t.sessions {
		rr.attempted += s.batches
		rr.basePJ += s.basePJ
		rr.encPJ += s.encPJ
		st := s.conn.RetryStats()
		rr.retries += st.Retries
		rr.busy += st.Busy
		rr.epochs += s.conn.Epoch()
	}
	return rr, nil
}

// values returns the round's roundMetrics.
func (rr roundResult) values() map[string]float64 {
	win := rr.win
	batches := float64(max(win.batches, 1))
	return map[string]float64{
		"throughput_batches_per_s": batches / win.elapsed.Seconds(),
		"latency_p50_us":           win.lat.quantile(0.50) / 1e3,
		"latency_p99_us":           win.lat.quantile(0.99) / 1e3,
		"cpu_us_per_batch":         float64(win.cpu.Microseconds()) / batches,
		"energy_saved_pct":         100 * (1 - rr.encPJ/rr.basePJ),
		"heap_peak_mb":             float64(win.heapPeak) / (1 << 20),
		"setup_s":                  rr.setup.Seconds(),
	}
}

// summarize reports each of roundMetrics as the median of the rounds.
func summarize(name string, rounds []roundResult) workloadResult {
	res := workloadResult{Workload: name, Metrics: make(map[string]metricValue)}
	per := make(map[string][]float64)
	var errs []error
	for _, rr := range rounds {
		for k, v := range rr.values() {
			per[k] = append(per[k], v)
		}
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		res.LatencySamples = append(res.LatencySamples, rr.win.lat.n)
		res.LatencyP999 = append(res.LatencyP999, rr.win.lat.quantile(0.999)/1e3)
		errs = append(errs, rr.err)
	}
	for _, m := range roundMetrics {
		res.Metrics[m.name] = metricValue{Value: median(per[m.name]), Unit: m.unit, Rounds: per[m.name]}
	}
	if err := errors.Join(errs...); err != nil {
		res.FirstError = err.Error()
	}
	return res
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// printReport writes the human-readable table: a stamp line, then one line
// per (workload, metric) with the per-round values.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "# bxt end-to-end bench: seed=%d nproc=%d GOMAXPROCS=%d go=%s rounds=%d seconds=%g trace=%v\n",
		rep.Seed, rep.NProc, rep.GOMAXPROCS, rep.Go, rep.Rounds, rep.Seconds, rep.Trace)
	for _, res := range rep.Workloads {
		all := maps.Clone(res.Metrics)
		maps.Copy(all, res.Layers)
		names := make([]string, 0, len(all))
		for k := range all {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := all[k]
			fmt.Fprintf(w, "%-18s %-30s %14.4f %-10s %s\n", res.Workload, k, m.Value, m.Unit, roundList(m.Rounds))
		}
		fmt.Fprintf(w, "%-18s %-30s %.4g us\n", res.Workload, "latency_p999_us (info)", res.LatencyP999)
		fmt.Fprintf(w, "%-18s samples per round %v, attempted %d, failed %d\n",
			res.Workload, res.LatencySamples, res.Attempted, res.Failed)
		if res.FirstError != "" {
			fmt.Fprintf(w, "%-18s first error: %s\n", res.Workload, res.FirstError)
		}
	}
}

// roundList formats per-round values, or nothing for a single value.
func roundList(xs []float64) string {
	if len(xs) < 2 {
		return ""
	}
	return fmt.Sprintf("rounds %.4g", xs)
}

// line is the last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine builds the closing JSON line: the gated end-to-end metrics, or
// the per-layer ones of a traced run. A multi-workload run prefixes each
// name with its workload.
func resultLine(rep *report) line {
	l := line{Metrics: make(map[string]metricValue)}
	for _, res := range rep.Workloads {
		l.Attempted += res.Attempted
		l.Failed += res.Failed
		set := make(map[string]metricValue)
		for _, m := range roundMetrics {
			if m.gated {
				set[m.name] = res.Metrics[m.name]
			}
		}
		if rep.Trace {
			set = res.Layers
		}
		for k, m := range set {
			if len(rep.Workloads) > 1 {
				k = res.Workload + "/" + k
			}
			l.Metrics[k] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	l.Correct = l.Failed == 0 && l.Attempted > 0
	return l
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
