package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// schemeCounters accumulates one scheme's serving totals. Batches update
// under one short lock; the exposition handler takes a snapshot.
type schemeCounters struct {
	mu           sync.Mutex
	transactions uint64
	bytes        uint64
	batches      uint64
}

// observe folds one batch's accounting into c.
func (c *schemeCounters) observe(s trace.BatchStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.transactions += uint64(s.Transactions)
	c.bytes += s.DataBits / 8
	c.batches++
}

// schemeSnapshot is a lock-free copy of one scheme's totals.
type schemeSnapshot struct {
	transactions uint64
	bytes        uint64
	batches      uint64
}

// snapshot returns a copy of c for exposition.
func (c *schemeCounters) snapshot() schemeSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return schemeSnapshot{
		transactions: c.transactions,
		bytes:        c.bytes,
		batches:      c.batches,
	}
}

// metrics is the gateway's observability state: per-scheme serving
// counters and per-(scheme, stage) latency histograms, exposed in
// Prometheus text format after the connection host's draining and
// connections_* families.
type metrics struct {
	// Fault-tolerance counters. batchFaults counts every recoverable
	// batch failure answered with a BatchError frame; codecPanics and
	// poisonBatches count recovered codec panics and the batches
	// quarantined for them; busyShed counts batches shed by the admission
	// gate; budgetKills counts streams closed for exhausting their fault
	// budget (the connection and its other streams keep serving; the
	// family keeps its historical "disconnects" name); slowClients counts
	// sessions torn down by a reply write deadline.
	batchFaults   atomic.Uint64
	codecPanics   atomic.Uint64
	poisonBatches atomic.Uint64
	busyShed      atomic.Uint64
	budgetKills   atomic.Uint64
	slowClients   atomic.Uint64

	// streamKills counts streams the gateway closed for exhausting their
	// fault budget while their connection kept serving. The host writes
	// the streams_* and stream_refused_total families.
	streamKills atomic.Uint64

	// State-transfer counters. stateSnapshots and stateRestores count
	// successful StateSnapshot/StateRestore admin exchanges; stateFails
	// counts ones answered with a StateFailed ack; stateSnapshotBytes is
	// the size of the last snapshot served (a gauge, for sizing the
	// transfer path).
	stateSnapshots     atomic.Uint64
	stateRestores      atomic.Uint64
	stateFails         atomic.Uint64
	stateSnapshotBytes atomic.Int64

	// stages holds the bxtd_stage_seconds{scheme,stage} histograms.
	// Sessions resolve their four histograms once at handshake, so the
	// per-batch cost is one mutex per stage observation.
	stages *obs.HistogramTracer

	// energy holds the per-scheme live wire-activity counters behind the
	// bxtd_wire_* and bxtd_energy_* families; est is the power model's
	// estimator evaluated over them at exposition time. traces is the
	// span ring behind /debug/trace.
	energy *obs.EnergyMeter
	est    obs.EnergyEstimator
	traces *obs.TraceRing

	mu      sync.Mutex
	schemes map[string]*schemeCounters
}

func newMetrics(traceBuffer int, est obs.EnergyEstimator) *metrics {
	return &metrics{
		stages:  obs.NewHistogramTracer(nil),
		energy:  obs.NewEnergyMeter(0, 0),
		est:     est,
		traces:  obs.NewTraceRing(traceBuffer),
		schemes: make(map[string]*schemeCounters),
	}
}

// scheme returns (creating on first use) the counters for name.
func (m *metrics) scheme(name string) *schemeCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.schemes[name]
	if !ok {
		c = &schemeCounters{}
		m.schemes[name] = c
	}
	return c
}

// writeExposition renders the gateway's part of the /metrics document:
// fault, stream and state-transfer counters, per-scheme counters, live
// wire-activity and energy telemetry, per-stage latency histograms, and Go
// runtime gauges. The wire and energy families render through the
// obs.Expo registry shared with bxtproxy, so both binaries expose one
// family vocabulary.
func (m *metrics) writeExposition(w io.Writer) {
	e := obs.Expo{W: w, Prefix: "bxtd_"}
	fmt.Fprintf(w, "bxtd_batch_faults_total %d\n", m.batchFaults.Load())
	fmt.Fprintf(w, "bxtd_codec_panics_total %d\n", m.codecPanics.Load())
	fmt.Fprintf(w, "bxtd_poison_batches_total %d\n", m.poisonBatches.Load())
	fmt.Fprintf(w, "bxtd_busy_total %d\n", m.busyShed.Load())
	fmt.Fprintf(w, "bxtd_fault_budget_disconnects_total %d\n", m.budgetKills.Load())
	fmt.Fprintf(w, "bxtd_slow_client_disconnects_total %d\n", m.slowClients.Load())
	fmt.Fprintf(w, "bxtd_stream_kills_total %d\n", m.streamKills.Load())
	fmt.Fprintf(w, "bxtd_state_snapshots_total %d\n", m.stateSnapshots.Load())
	fmt.Fprintf(w, "bxtd_state_restores_total %d\n", m.stateRestores.Load())
	fmt.Fprintf(w, "bxtd_state_transfer_failures_total %d\n", m.stateFails.Load())
	fmt.Fprintf(w, "bxtd_state_snapshot_bytes %d\n", m.stateSnapshotBytes.Load())

	m.mu.Lock()
	names := make([]string, 0, len(m.schemes))
	for n := range m.schemes {
		names = append(names, n)
	}
	sort.Strings(names)
	snaps := make(map[string]schemeSnapshot, len(names))
	for _, n := range names {
		snaps[n] = m.schemes[n].snapshot()
	}
	m.mu.Unlock()

	for _, n := range names {
		c := snaps[n]
		fmt.Fprintf(w, "bxtd_transactions_total{scheme=%q} %d\n", n, c.transactions)
		fmt.Fprintf(w, "bxtd_bytes_total{scheme=%q} %d\n", n, c.bytes)
		fmt.Fprintf(w, "bxtd_batches_total{scheme=%q} %d\n", n, c.batches)
	}

	obs.WriteEnergyMetrics(e, "scheme", m.energy, m.est)
	e.Uint(obs.FamTraceSpans, "", m.traces.Total())

	m.stages.WritePrometheus(w, "bxtd_stage_seconds")
	obs.WriteRuntimeMetrics(w, "bxtd")
}
