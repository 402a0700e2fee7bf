package proxy

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/hpca18/bxt/internal/obs"
)

// metrics is the proxy's observability state: failover conversion
// counters and per-(scheme, stage) latency histograms, exposed in
// Prometheus text format after the connection host's draining and
// connections_* families, alongside per-backend serving counters.
type metrics struct {
	// Failover accounting. busyConverted counts dead-backend batches
	// answered with a retryable Busy frame (stateless sessions);
	// faultConverted counts those answered with a codec-reset BatchError
	// (pinned sessions); relayedFaults counts backend Busy/BatchError replies passed through
	// unchanged; repins counts pinned sessions migrated to a new backend.
	busyConverted  atomic.Uint64
	faultConverted atomic.Uint64
	relayedFaults  atomic.Uint64
	repins         atomic.Uint64

	// State-transfer accounting for pinned-session failover, one counter
	// per outcome of the bxtproxy_state_transfers_total family: a live
	// pull restored (ok), a shadow snapshot restored (ok_shadow), no
	// current state could be pulled (snapshot_failed), state pulled but
	// not installed (restore_failed), or the scheme/protocol cannot
	// transfer state at all (unsupported). Only the two ok outcomes avoid
	// a client codec reset.
	stateOK          atomic.Uint64
	stateOKShadow    atomic.Uint64
	stateSnapFailed  atomic.Uint64
	stateRestFailed  atomic.Uint64
	stateUnsupported atomic.Uint64
	// shadowPulls counts shadow snapshots pulled from pins and kept for
	// failover.
	shadowPulls atomic.Uint64

	// streamKills counts backend stream kills relayed to clients while
	// their sessions kept serving. The host writes the streams_* and
	// stream_refused_total families, which count refusals relayed from a
	// backend too.
	streamKills atomic.Uint64

	// stages holds the bxtproxy_stage_seconds{scheme,stage} histograms:
	// frame_read and frame_write for the client leg, backend_exchange for
	// the upstream round trip.
	stages *obs.HistogramTracer

	// energy holds the per-backend wire-activity counters rebuilt from
	// relayed BatchStats replies; est evaluates them through the power
	// model at exposition. traces is the relay-span ring behind
	// /debug/trace.
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

// writeExposition renders the proxy's part of the /metrics document:
// failover and stream counters, one series set per configured backend
// (including the wire and energy families aggregated per backend from
// relayed BatchStats), stage latency histograms, and Go runtime gauges.
// The wire and energy families render through the obs.Expo registry
// shared with bxtd.
func (m *metrics) writeExposition(w io.Writer, backends []*backend) {
	e := obs.Expo{W: w, Prefix: "bxtproxy_"}
	fmt.Fprintf(w, "bxtproxy_busy_converted_total %d\n", m.busyConverted.Load())
	fmt.Fprintf(w, "bxtproxy_batch_error_converted_total %d\n", m.faultConverted.Load())
	fmt.Fprintf(w, "bxtproxy_relayed_faults_total %d\n", m.relayedFaults.Load())
	fmt.Fprintf(w, "bxtproxy_repins_total %d\n", m.repins.Load())
	fmt.Fprintf(w, "bxtproxy_state_transfers_total{outcome=\"ok\"} %d\n", m.stateOK.Load())
	fmt.Fprintf(w, "bxtproxy_state_transfers_total{outcome=\"ok_shadow\"} %d\n", m.stateOKShadow.Load())
	fmt.Fprintf(w, "bxtproxy_state_transfers_total{outcome=\"snapshot_failed\"} %d\n", m.stateSnapFailed.Load())
	fmt.Fprintf(w, "bxtproxy_state_transfers_total{outcome=\"restore_failed\"} %d\n", m.stateRestFailed.Load())
	fmt.Fprintf(w, "bxtproxy_state_transfers_total{outcome=\"unsupported\"} %d\n", m.stateUnsupported.Load())
	fmt.Fprintf(w, "bxtproxy_shadow_snapshots_total %d\n", m.shadowPulls.Load())
	fmt.Fprintf(w, "bxtproxy_stream_kills_total %d\n", m.streamKills.Load())

	for _, b := range backends {
		up := 1
		if b.ejected.Load() {
			up = 0
		}
		draining := 0
		if b.draining.Load() {
			draining = 1
		}
		fmt.Fprintf(w, "bxtproxy_backend_up{backend=%q} %d\n", b.addr, up)
		fmt.Fprintf(w, "bxtproxy_backend_draining{backend=%q} %d\n", b.addr, draining)
		fmt.Fprintf(w, "bxtproxy_backend_pending{backend=%q} %d\n", b.addr, b.pending.Load())
		fmt.Fprintf(w, "bxtproxy_backend_pinned_sessions{backend=%q} %d\n", b.addr, b.pinned.Load())
		fmt.Fprintf(w, "bxtproxy_backend_batches_total{backend=%q} %d\n", b.addr, b.batches.Load())
		fmt.Fprintf(w, "bxtproxy_backend_failures_total{backend=%q} %d\n", b.addr, b.failures.Load())
		fmt.Fprintf(w, "bxtproxy_backend_probes_total{backend=%q} %d\n", b.addr, b.probes.Load())
	}

	obs.WriteEnergyMetrics(e, "backend", m.energy, m.est)
	e.Uint(obs.FamTraceSpans, "", m.traces.Total())

	m.stages.WritePrometheus(w, "bxtproxy_stage_seconds")
	obs.WriteRuntimeMetrics(w, "bxtproxy")
}
