package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/hpca18/bxt/internal/stats"
)

// Histogram is a concurrency-safe latency histogram with a fixed set of
// log-spaced buckets, built on the repository's stats.Histogram bins (the
// bins live in log10-seconds space, so fixed-width bins there are
// exponential latency buckets). It renders as a Prometheus histogram
// family: cumulative le-buckets plus _sum and _count.
type Histogram struct {
	mu sync.Mutex
	// bins holds per-bucket counts over [log10(lo), log10(hi)).
	bins *stats.Histogram
	// bounds[i] is bucket i's upper bound in seconds (the le label).
	bounds []float64
	lo, hi float64
	sum    float64
	count  uint64
	// overflow counts observations >= hi; they appear only in +Inf.
	overflow uint64
	// exMax and exTrace are the slow-batch exemplar: the largest traced
	// observation so far and the trace id that caused it, linking the
	// histogram's tail to a span on the /debug/trace surface.
	exMax   float64
	exTrace uint64
}

// NewHistogram builds a histogram spanning [lo, hi) seconds with
// binsPerDecade log-spaced buckets per factor of ten. Observations below
// lo fall into the first bucket; observations at or above hi count only
// toward +Inf.
func NewHistogram(lo, hi float64, binsPerDecade int) *Histogram {
	if lo <= 0 || hi <= lo || binsPerDecade <= 0 {
		panic(fmt.Sprintf("obs: invalid histogram range [%g, %g) x %d", lo, hi, binsPerDecade))
	}
	llo, lhi := math.Log10(lo), math.Log10(hi)
	n := int(math.Round((lhi - llo) * float64(binsPerDecade)))
	if n < 1 {
		n = 1
	}
	bounds := make([]float64, n)
	w := (lhi - llo) / float64(n)
	for i := range bounds {
		bounds[i] = math.Pow(10, llo+float64(i+1)*w)
	}
	bounds[n-1] = hi // exact, despite float exponentiation
	return &Histogram{
		bins:   stats.NewHistogram(llo, lhi, n),
		bounds: bounds,
		lo:     lo,
		hi:     hi,
	}
}

// NewLatencyHistogram returns the default serving-latency geometry:
// 1µs to 10s, two buckets per decade (14 buckets).
func NewLatencyHistogram() *Histogram {
	return NewHistogram(1e-6, 10, 2)
}

// Observe records one value in seconds.
func (h *Histogram) Observe(sec float64) { h.ObserveEx(sec, 0) }

// ObserveEx is Observe carrying the observation's trace id; a nonzero id
// that sets a new maximum becomes the histogram's slow-batch exemplar.
func (h *Histogram) ObserveEx(sec float64, traceID uint64) {
	h.mu.Lock()
	h.sum += sec
	h.count++
	if sec >= h.hi {
		h.overflow++
	} else {
		h.bins.Add(math.Log10(math.Max(sec, h.lo)))
	}
	if traceID != 0 && sec >= h.exMax {
		h.exMax, h.exTrace = sec, traceID
	}
	h.mu.Unlock()
}

// ObserveDuration records one duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Exemplar returns the slowest traced observation and its trace id (zero
// when no traced observation has been recorded).
func (h *Histogram) Exemplar() (sec float64, traceID uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.exMax, h.exTrace
}

// HistogramSnapshot is a consistent copy of a histogram for exposition.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds; Cumulative[i] is
	// the number of observations at or below Bounds[i].
	Bounds     []float64
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// Snapshot returns a consistent copy of h.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.bounds))
	var running uint64
	for i, c := range h.bins.Counts {
		running += uint64(c)
		cum[i] = running
	}
	return HistogramSnapshot{
		Bounds:     h.bounds, // immutable after construction
		Cumulative: cum,
		Count:      h.count,
		Sum:        h.sum,
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean observation in seconds (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the p-quantile (0..1) in seconds by linear
// interpolation within the owning bucket, the way Prometheus's
// histogram_quantile does. Quantiles landing in +Inf report the range's
// upper edge.
func (h *Histogram) Quantile(p float64) float64 {
	s := h.Snapshot()
	if s.Count == 0 {
		return 0
	}
	target := p * float64(s.Count)
	if target < 1 {
		target = 1
	}
	prevCum, prevBound := uint64(0), h.lo
	for i, bound := range s.Bounds {
		if float64(s.Cumulative[i]) >= target {
			inBin := float64(s.Cumulative[i] - prevCum)
			frac := (target - float64(prevCum)) / inBin
			lower := prevBound
			if i == 0 {
				lower = 0 // below-range observations clamp into bucket 0
			}
			return lower + frac*(bound-lower)
		}
		prevCum, prevBound = s.Cumulative[i], bound
	}
	return h.hi
}

// Merge folds o (same geometry) into h.
func (h *Histogram) Merge(o *Histogram) {
	os := o.snapshotRaw()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(os.counts) != len(h.bins.Counts) || os.lo != h.lo || os.hi != h.hi {
		panic("obs: merging histograms with different geometry")
	}
	for i, c := range os.counts {
		h.bins.Counts[i] += c
	}
	h.sum += os.sum
	h.count += os.count
	h.overflow += os.overflow
}

type rawSnapshot struct {
	counts   []int
	lo, hi   float64
	sum      float64
	count    uint64
	overflow uint64
}

func (h *Histogram) snapshotRaw() rawSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return rawSnapshot{
		counts:   append([]int(nil), h.bins.Counts...),
		lo:       h.lo,
		hi:       h.hi,
		sum:      h.sum,
		count:    h.count,
		overflow: h.overflow,
	}
}

// WritePrometheus renders h as the text-format histogram family `name`
// with the given pre-formatted label set (e.g. `scheme="universal",
// stage="codec_encode"`, or "" for no labels).
func (h *Histogram) WritePrometheus(w io.Writer, name, labels string) {
	s := h.Snapshot()
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, bound := range s.Bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(bound), s.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, s.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// formatBound renders an le bound without exponent noise for round values.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', 6, 64)
}

// HistogramTracer is a Tracer that keeps one Histogram per (scheme, stage)
// pair, creating them on first use.
type HistogramTracer struct {
	mu      sync.Mutex
	hists   map[histKey]*Histogram
	newHist func() *Histogram
}

type histKey struct {
	scheme string
	stage  Stage
}

// NewHistogramTracer builds a tracer; newHist constructs each per-pair
// histogram (nil selects NewLatencyHistogram).
func NewHistogramTracer(newHist func() *Histogram) *HistogramTracer {
	if newHist == nil {
		newHist = NewLatencyHistogram
	}
	return &HistogramTracer{hists: make(map[histKey]*Histogram), newHist: newHist}
}

// Hist returns (creating on first use) the histogram for one pair. The
// returned histogram is stable: hot paths should resolve it once and
// observe into it directly.
func (t *HistogramTracer) Hist(scheme string, stage Stage) *Histogram {
	k := histKey{scheme, stage}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[k]
	if !ok {
		h = t.newHist()
		t.hists[k] = h
	}
	return h
}

// StageSet is one scheme's stage histograms, resolved from a
// HistogramTracer once, when a stream opens, so recording a span costs no
// map lookup and no allocation.
type StageSet struct {
	stages []Stage
	hists  []*Histogram
}

// Set returns scheme's StageSet over stages, creating any histogram not
// made yet: each renders, empty, from the moment a stream resolves it.
func (t *HistogramTracer) Set(scheme string, stages ...Stage) *StageSet {
	set := &StageSet{stages: stages, hists: make([]*Histogram, len(stages))}
	for i, st := range stages {
		set.hists[i] = t.Hist(scheme, st)
	}
	return set
}

// Record folds every stage of s into its histogram, with s's trace id as
// the exemplar. A stage outside the set is not recorded.
func (set *StageSet) Record(s *Span) {
	for _, st := range s.Stages() {
		for i, want := range set.stages {
			if want == st.Stage {
				set.hists[i].ObserveEx(time.Duration(st.Nanos).Seconds(), s.TraceID)
				break
			}
		}
	}
}

// ObserveStage implements Tracer.
func (t *HistogramTracer) ObserveStage(scheme string, stage Stage, d time.Duration) {
	t.Hist(scheme, stage).ObserveDuration(d)
}

// Each visits every (scheme, stage) histogram, ordered by scheme name and
// then pipeline stage order, so expositions are deterministic.
func (t *HistogramTracer) Each(fn func(scheme string, stage Stage, h *Histogram)) {
	t.mu.Lock()
	keys := make([]histKey, 0, len(t.hists))
	for k := range t.hists {
		keys = append(keys, k)
	}
	hists := make(map[histKey]*Histogram, len(keys))
	for _, k := range keys {
		hists[k] = t.hists[k]
	}
	t.mu.Unlock()

	order := make(map[Stage]int, len(Stages()))
	for i, st := range Stages() {
		order[st] = i
	}
	// Stages outside the pipeline (retry_backoff, simcache_lookup, …) sort
	// after it, alphabetically, so the exposition stays deterministic.
	rank := func(s Stage) int {
		if r, ok := order[s]; ok {
			return r
		}
		return len(order)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].scheme != keys[j].scheme {
			return keys[i].scheme < keys[j].scheme
		}
		if ri, rj := rank(keys[i].stage), rank(keys[j].stage); ri != rj {
			return ri < rj
		}
		return keys[i].stage < keys[j].stage
	})
	for _, k := range keys {
		fn(k.scheme, k.stage, hists[k])
	}
}

// WritePrometheus renders every pair as one `name{scheme,stage}` family.
func (t *HistogramTracer) WritePrometheus(w io.Writer, name string) {
	t.Each(func(scheme string, stage Stage, h *Histogram) {
		h.WritePrometheus(w, name, fmt.Sprintf("scheme=%q,stage=%q", scheme, stage))
	})
}
