package obs

import (
	"fmt"
	"io"

	"github.com/hpca18/bxt/internal/bus"
)

// Canonical metric-family suffixes shared by bxtd and bxtproxy. Each binary
// prefixes them with its own namespace (bxtd_, bxtproxy_) via Expo, so the
// fleet exposes one family vocabulary: a dashboard that understands
// bxtd_wire_ones_total reads bxtproxy_wire_ones_total the same way, only
// the aggregation label differs (scheme on the gateway, backend on the
// proxy).
const (
	// Wire-activity counters, per leg ("baseline" is the raw bus the
	// batch would have cost unencoded, "encoded" the bus it did cost).
	FamWireOnes    = "wire_ones_total"
	FamWireToggles = "wire_toggles_total"
	FamWireBits    = "wire_bits_total"

	// Energy families derived from the wire counters through the power
	// model at exposition time.
	FamEnergyJoules  = "energy_joules_total"
	FamEnergySaved   = "energy_saved_joules_total"
	FamEnergyPerByte = "energy_joules_per_byte"

	// Rolling-window gauges: recent draw in watts and the recent
	// baseline-vs-encoded savings ratio.
	FamWindowWatts   = "energy_window_watts"
	FamWindowSavings = "energy_window_savings_ratio"

	// Trace-surface counter: spans recorded into the /debug/trace ring.
	FamTraceSpans = "trace_spans_total"

	// Connection families, unified across gateway and proxy.
	FamConnsActive   = "connections_active"
	FamConnsTotal    = "connections_total"
	FamConnsRejected = "connections_rejected_total"
	FamDraining      = "draining"

	// Stream families, unified across gateway and proxy: streams open now,
	// streams ever opened, and StreamOpen frames answered with a refusal.
	FamStreamsOpen   = "streams_open"
	FamStreamsTotal  = "streams_total"
	FamStreamRefused = "stream_refused_total"
)

// Expo writes Prometheus text-format series under one metric namespace.
// It exists so bxtd and bxtproxy render the shared families above through
// identical code paths instead of hand-formatted fmt.Fprintf lines that
// drift apart.
type Expo struct {
	W io.Writer
	// Prefix is the namespace including the trailing underscore, e.g.
	// "bxtd_".
	Prefix string
}

// Labels renders a label set from alternating name, value pairs.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labels needs name/value pairs")
	}
	out := ""
	for i := 0; i < len(kv); i += 2 {
		if out != "" {
			out += ","
		}
		out += fmt.Sprintf("%s=%q", kv[i], kv[i+1])
	}
	return out
}

func (e Expo) series(family, labels string) string {
	if labels == "" {
		return e.Prefix + family
	}
	return e.Prefix + family + "{" + labels + "}"
}

// Int emits one integer-valued series.
func (e Expo) Int(family, labels string, v int64) {
	fmt.Fprintf(e.W, "%s %d\n", e.series(family, labels), v)
}

// Uint emits one unsigned-integer-valued series.
func (e Expo) Uint(family, labels string, v uint64) {
	fmt.Fprintf(e.W, "%s %d\n", e.series(family, labels), v)
}

// Float emits one float-valued series. %g prints the shortest
// representation that round-trips the float64, so a scraper that parses
// the value recovers the computed bits exactly — the property the
// energy-differential test relies on.
func (e Expo) Float(family, labels string, v float64) {
	fmt.Fprintf(e.W, "%s %g\n", e.series(family, labels), v)
}

// WriteEnergyMetrics renders one meter's counters as the shared wire and
// energy families. labelName is the per-key aggregation label ("scheme" on
// the gateway, "backend" on the proxy); est converts integer wire stats to
// energy components (nil skips the energy families and emits only the raw
// wire counters).
func WriteEnergyMetrics(e Expo, labelName string, m *EnergyMeter, est EnergyEstimator) {
	m.Each(func(key string, c *EnergyCounter) {
		s := c.Snapshot()
		base := Labels(labelName, key, "leg", "baseline")
		enc := Labels(labelName, key, "leg", "encoded")
		e.Uint(FamWireOnes, base, uint64(s.Base.Ones()))
		e.Uint(FamWireOnes, enc, uint64(s.Enc.Ones()))
		e.Uint(FamWireToggles, base, uint64(s.Base.Toggles()))
		e.Uint(FamWireToggles, enc, uint64(s.Enc.Toggles()))
		e.Uint(FamWireBits, base, uint64(s.Base.DataBits+s.Base.MetaBits))
		e.Uint(FamWireBits, enc, uint64(s.Enc.DataBits+s.Enc.MetaBits))
		if est == nil {
			return
		}

		baseComps := est(s.Base)
		encComps := est(s.Enc)
		var baseJ, encJ float64
		for _, comp := range baseComps {
			e.Float(FamEnergyJoules, Labels(labelName, key, "leg", "baseline", "component", comp.Name), comp.Joules)
			baseJ += comp.Joules
		}
		for _, comp := range encComps {
			e.Float(FamEnergyJoules, Labels(labelName, key, "leg", "encoded", "component", comp.Name), comp.Joules)
			encJ += comp.Joules
		}
		e.Float(FamEnergySaved, Labels(labelName, key), baseJ-encJ)
		if bytes := float64(s.Enc.DataBits) / 8; bytes > 0 {
			e.Float(FamEnergyPerByte, Labels(labelName, key, "leg", "baseline"), baseJ/bytes)
			e.Float(FamEnergyPerByte, Labels(labelName, key, "leg", "encoded"), encJ/bytes)
		}

		if s.Window > 0 {
			winBase := TotalJoules(est(s.WinBase))
			winEnc := TotalJoules(est(s.WinEnc))
			e.Float(FamWindowWatts, Labels(labelName, key), winEnc/s.Window.Seconds())
			if winBase > 0 {
				e.Float(FamWindowSavings, Labels(labelName, key), 1-winEnc/winBase)
			}
		}
	})
}

// SyntheticStats rebuilds a bus.Stats pair from the per-batch wire counters
// a BatchStats reply carries, letting proxies and clients feed the same
// energy pipeline the gateway feeds from its own buses. Toggle counts are
// leg-specific; all ones land on the data rails (Ones() still matches the
// gateway's data+meta split because relayed replies do not separate them).
func SyntheticStats(txns int, dataBits, ones, toggles uint64) bus.Stats {
	return bus.Stats{
		Transactions: txns,
		DataBits:     int(dataBits),
		DataOnes:     int(ones),
		DataToggles:  int(toggles),
	}
}
