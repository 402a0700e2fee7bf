package main

import (
	"math/bits"
	"time"
)

// Latencies are counted in log-linear buckets: exact below 256 ns, then 256
// buckets per power of two, so a quantile is resolved to 0.4% in fixed
// memory however many batches a run completes. Storing every sample instead
// would grow the heap with throughput and leak into heap_peak_mb.
const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

type latencyHist struct {
	counts [histBuckets]uint32
	n      uint64
}

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 - histSubBits
	return (e+1)*histSub + int(ns>>e) - histSub
}

// histBucket returns bucket i's lower bound and width in nanoseconds.
func histBucket(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	return float64(uint64(i%histSub+histSub) << e), float64(uint64(1) << e)
}

func (h *latencyHist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0..1) in nanoseconds, interpolating
// linearly inside the bucket that holds it.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := histBucket(i)
			return lo + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBucket(histBuckets - 1)
	return lo + width
}
