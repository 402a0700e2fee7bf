package server

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/hpca18/bxt/internal/obs"
)

// metrics is the gateway's observability state: per-scheme serving
// counters and per-(scheme, stage) latency histograms, exposed in
// Prometheus text format after the connection host's draining and
// connections_* families.
type metrics struct {
	// Fault-tolerance counters. batchFaults counts every recoverable
	// batch failure answered with a BatchError frame; codecPanics counts
	// recovered codec panics, each quarantining its batch (the codec
	// panics and poison batches families); busyShed counts batches shed
	// by the admission gate; streamKills counts streams closed for
	// exhausting their fault budget while their connection kept serving
	// (the stream kills family, and the fault budget family under its
	// historical "disconnects" name); slowClients counts sessions torn
	// down by a reply write deadline. The host writes the streams_* and
	// stream_refused_total families.
	batchFaults atomic.Uint64
	codecPanics atomic.Uint64
	busyShed    atomic.Uint64
	streamKills atomic.Uint64
	slowClients atomic.Uint64

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
	// Streams resolve their scheme's set once at open, and record each
	// batch's span into it when the batch is answered.
	stages *obs.HistogramTracer

	// energy holds the per-scheme live wire-activity counters behind the
	// bxtd_transactions/bytes/batches_total, bxtd_wire_* and bxtd_energy_*
	// families; est is the power model's estimator evaluated over them at
	// exposition time. traces is the span ring behind /debug/trace.
	energy *obs.EnergyMeter
	est    obs.EnergyEstimator
	traces *obs.TraceRing
}

func newMetrics(traceBuffer int, est obs.EnergyEstimator) *metrics {
	return &metrics{
		stages: obs.NewHistogramTracer(nil),
		energy: obs.NewEnergyMeter(0, 0),
		est:    est,
		traces: obs.NewTraceRing(traceBuffer),
	}
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
	fmt.Fprintf(w, "bxtd_poison_batches_total %d\n", m.codecPanics.Load())
	fmt.Fprintf(w, "bxtd_busy_total %d\n", m.busyShed.Load())
	fmt.Fprintf(w, "bxtd_fault_budget_disconnects_total %d\n", m.streamKills.Load())
	fmt.Fprintf(w, "bxtd_slow_client_disconnects_total %d\n", m.slowClients.Load())
	fmt.Fprintf(w, "bxtd_stream_kills_total %d\n", m.streamKills.Load())
	fmt.Fprintf(w, "bxtd_state_snapshots_total %d\n", m.stateSnapshots.Load())
	fmt.Fprintf(w, "bxtd_state_restores_total %d\n", m.stateRestores.Load())
	fmt.Fprintf(w, "bxtd_state_transfer_failures_total %d\n", m.stateFails.Load())
	fmt.Fprintf(w, "bxtd_state_snapshot_bytes %d\n", m.stateSnapshotBytes.Load())

	m.energy.Each(func(n string, c *obs.EnergyCounter) {
		s := c.Snapshot()
		fmt.Fprintf(w, "bxtd_transactions_total{scheme=%q} %d\n", n, s.Base.Transactions)
		fmt.Fprintf(w, "bxtd_bytes_total{scheme=%q} %d\n", n, s.Base.DataBits/8)
		fmt.Fprintf(w, "bxtd_batches_total{scheme=%q} %d\n", n, s.Batches)
	})

	obs.WriteEnergyMetrics(e, "scheme", m.energy, m.est)
	e.Uint(obs.FamTraceSpans, "", m.traces.Total())

	m.stages.WritePrometheus(w, "bxtd_stage_seconds")
	obs.WriteRuntimeMetrics(w, "bxtd")
}
