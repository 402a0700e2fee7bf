// Command bxtstat is a top-style live dashboard for a bxt serving fleet:
// it polls the /metrics endpoints of any mix of bxtd gateways and
// bxtproxy tiers, and renders per-target serving rates, similarity-cache
// hit rates, stage latency quantiles, and live wire-energy telemetry —
// including the savings the encoding is buying versus a raw-bus baseline.
//
// Usage:
//
//	bxtstat                                     # watch 127.0.0.1:9651
//	bxtstat -targets 10.0.0.1:9651,10.0.0.2:9651,10.0.0.3:9661
//	bxtstat -interval 1s                        # faster refresh
//	bxtstat -once                               # single snapshot, no screen clear
//
// Targets are metrics addresses (host:port, or a full URL); /metrics is
// appended when missing. The binary speaks only the Prometheus text
// format the daemons expose, so it needs no fleet-side support beyond
// the metrics port.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hpca18/bxt/internal/obs"
)

func main() {
	targets := flag.String("targets", "127.0.0.1:9651", "comma-separated metrics addresses (host:port or URL) of bxtd and bxtproxy instances")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	timeout := flag.Duration("timeout", 2*time.Second, "per-target scrape timeout")
	once := flag.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	flag.Parse()

	var list []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			list = append(list, t)
		}
	}
	if len(list) == 0 {
		fmt.Fprintln(os.Stderr, "bxtstat: no targets")
		os.Exit(1)
	}

	client := &http.Client{Timeout: *timeout}
	fetch := func(target string) ([]obs.MetricPoint, error) { return scrape(client, target) }

	if *once {
		snaps := collectFleet(list, fetch, time.Now())
		renderFleet(os.Stdout, snaps, nil)
		for _, s := range snaps {
			if s.Err != nil {
				os.Exit(1)
			}
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()

	prev := map[string]snapshot{}
	for {
		snaps := collectFleet(list, fetch, time.Now())
		// Clear and home rather than scroll: the dashboard repaints in place.
		fmt.Print("\x1b[H\x1b[2J")
		fmt.Printf("bxtstat  %d targets  every %s  %s\n\n", len(list), interval, time.Now().Format("15:04:05"))
		renderFleet(os.Stdout, snaps, prev)
		for _, s := range snaps {
			if s.Err == nil {
				prev[s.Target] = s
			}
		}
		select {
		case <-sig:
			return
		case <-tick.C:
		}
	}
}

// scrape fetches and parses one target's Prometheus exposition.
func scrape(client *http.Client, target string) ([]obs.MetricPoint, error) {
	url := target
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/metrics") {
		url = strings.TrimSuffix(url, "/") + "/metrics"
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return obs.ParsePromText(resp.Body)
}

// snapshot is one target's parsed state at one poll.
type snapshot struct {
	Target string
	Err    error
	At     time.Time
	// Kind is "bxtd" or "bxtproxy", detected from the family prefix.
	Kind string

	Conns    float64
	Streams  float64 // open v4 logical streams multiplexed over those conns
	Batches  float64 // lifetime batches served/relayed
	Txns     float64 // lifetime transactions (bxtd only)
	Draining bool

	// Similarity-cache hit rate over lifetime totals; HasHitRate is false
	// when the target runs without a cache (or is a proxy).
	HitRate    float64
	HasHitRate bool

	// Lifetime energy integrals (joules) from the live telemetry
	// families, summed across schemes/backends and model components, and
	// the rolling-window power draw of the encoded leg.
	BaseJoules, EncJoules float64
	WindowWatts           float64

	// Latency of the target's defining stage (codec_encode on bxtd,
	// backend_exchange on bxtproxy), aggregated across schemes.
	StageName     string
	StageP50      float64
	StageP99      float64
	HasStage      bool
	SpansRecorded float64
}

// collectFleet scrapes every target; scrape failures land in Err so a dead
// instance renders as down instead of aborting the dashboard.
func collectFleet(targets []string, fetch func(string) ([]obs.MetricPoint, error), at time.Time) []snapshot {
	snaps := make([]snapshot, len(targets))
	for i, t := range targets {
		points, err := fetch(t)
		if err != nil {
			snaps[i] = snapshot{Target: t, Err: err, At: at}
			continue
		}
		snaps[i] = collect(t, points, at)
	}
	return snaps
}

// collect reduces one exposition to the dashboard's row.
func collect(target string, points []obs.MetricPoint, at time.Time) snapshot {
	s := snapshot{Target: target, At: at}
	prefix := ""
	for _, p := range points {
		switch p.Name {
		case "bxtd_" + obs.FamDraining:
			prefix, s.Kind = "bxtd_", "bxtd"
		case "bxtproxy_" + obs.FamDraining:
			prefix, s.Kind = "bxtproxy_", "bxtproxy"
		}
		if prefix != "" {
			break
		}
	}
	if prefix == "" {
		s.Err = fmt.Errorf("%s: no bxtd or bxtproxy families in exposition", target)
		return s
	}
	s.Draining = obs.SumMetric(points, prefix+obs.FamDraining) > 0
	s.Conns = obs.SumMetric(points, prefix+obs.FamConnsActive)
	s.Streams = obs.SumMetric(points, prefix+obs.FamStreamsOpen)
	s.SpansRecorded = obs.SumMetric(points, prefix+obs.FamTraceSpans)
	if s.Kind == "bxtd" {
		s.Batches = obs.SumMetric(points, "bxtd_batches_total")
		s.Txns = obs.SumMetric(points, "bxtd_transactions_total")
		hits := obs.SumMetric(points, "bxtd_simcache_hits_total") +
			obs.SumMetric(points, "bxtd_simcache_near_hits_total")
		misses := obs.SumMetric(points, "bxtd_simcache_misses_total")
		if hits+misses > 0 {
			s.HitRate = hits / (hits + misses)
			s.HasHitRate = true
		}
		s.StageName = "codec_encode"
	} else {
		s.Batches = obs.SumMetric(points, "bxtproxy_backend_batches_total")
		s.StageName = "backend_exchange"
	}
	s.BaseJoules = obs.SumMetric(points, prefix+obs.FamEnergyJoules, "leg", "baseline")
	s.EncJoules = obs.SumMetric(points, prefix+obs.FamEnergyJoules, "leg", "encoded")
	s.WindowWatts = obs.SumMetric(points, prefix+obs.FamWindowWatts)
	bounds, cum, total := stageBuckets(points, prefix+"stage_seconds", s.StageName)
	if total > 0 {
		s.StageP50 = bucketQuantile(bounds, cum, total, 0.50)
		s.StageP99 = bucketQuantile(bounds, cum, total, 0.99)
		s.HasStage = true
	}
	return s
}

// stageBuckets aggregates one stage's histogram buckets across schemes:
// sorted finite bounds, matching cumulative counts, and the +Inf total.
// Summing cumulative counts is sound because every histogram in a family
// shares the latency geometry.
func stageBuckets(points []obs.MetricPoint, family, stage string) (bounds, cum []float64, total float64) {
	agg := map[float64]float64{}
	for _, p := range points {
		if p.Name != family+"_bucket" || p.Label("stage") != stage {
			continue
		}
		le := p.Label("le")
		if le == "+Inf" {
			total += p.Value
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		agg[b] += p.Value
	}
	bounds = make([]float64, 0, len(agg))
	for b := range agg {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	cum = make([]float64, len(bounds))
	for i, b := range bounds {
		cum[i] = agg[b]
	}
	return bounds, cum, total
}

// bucketQuantile estimates quantile q by linear interpolation within the
// bucket holding the target rank, the same estimate PromQL's
// histogram_quantile computes. Observations past the last finite bound
// report that bound.
func bucketQuantile(bounds, cum []float64, total, q float64) float64 {
	if total <= 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * total
	prevB, prevC := 0.0, 0.0
	for i, b := range bounds {
		if cum[i] >= rank {
			if cum[i] == prevC {
				return b
			}
			return prevB + (b-prevB)*(rank-prevC)/(cum[i]-prevC)
		}
		prevB, prevC = b, cum[i]
	}
	return bounds[len(bounds)-1]
}

// renderFleet writes the dashboard: one row per target plus fleet energy
// totals. prev supplies the previous poll per target for rate columns;
// nil (or a missing target) renders rates as "-".
func renderFleet(w io.Writer, snaps []snapshot, prev map[string]snapshot) {
	fmt.Fprintf(w, "%-24s %-9s %-5s %6s %7s %9s %9s %6s %8s %8s %7s %8s\n",
		"TARGET", "KIND", "STATE", "CONNS", "STREAMS", "BATCH/S", "TXN/S", "HIT%", "P50", "P99", "SAVE%", "WATTS")
	var fleetBase, fleetEnc, fleetWatts float64
	for _, s := range snaps {
		if s.Err != nil {
			fmt.Fprintf(w, "%-24s %-9s %-5s %s\n", s.Target, "?", "down", s.Err)
			continue
		}
		state := "up"
		if s.Draining {
			state = "drain"
		}
		batchRate, txnRate := "-", "-"
		if p, ok := prev[s.Target]; ok && s.At.After(p.At) {
			dt := s.At.Sub(p.At).Seconds()
			batchRate = fmtRate((s.Batches - p.Batches) / dt)
			if s.Kind == "bxtd" {
				txnRate = fmtRate((s.Txns - p.Txns) / dt)
			}
		}
		hit := "-"
		if s.HasHitRate {
			hit = fmt.Sprintf("%.1f", 100*s.HitRate)
		}
		p50, p99 := "-", "-"
		if s.HasStage {
			p50 = fmtSeconds(s.StageP50)
			p99 = fmtSeconds(s.StageP99)
		}
		save := "-"
		if s.BaseJoules > 0 {
			save = fmt.Sprintf("%.1f", 100*(1-s.EncJoules/s.BaseJoules))
		}
		fmt.Fprintf(w, "%-24s %-9s %-5s %6.0f %7.0f %9s %9s %6s %8s %8s %7s %8.3g\n",
			s.Target, s.Kind, state, s.Conns, s.Streams, batchRate, txnRate, hit, p50, p99, save, s.WindowWatts)
		fleetBase += s.BaseJoules
		fleetEnc += s.EncJoules
		fleetWatts += s.WindowWatts
	}
	if fleetBase > 0 {
		fmt.Fprintf(w, "\nfleet energy: %.4g J encoded vs %.4g J raw-bus baseline (%.1f%% saved), %.3g W over the window\n",
			fleetEnc, fleetBase, 100*(1-fleetEnc/fleetBase), fleetWatts)
	}
}

// fmtRate renders a per-second rate compactly (k/M above a thousand).
func fmtRate(v float64) string {
	switch {
	case v < 0:
		return "-"
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// fmtSeconds renders a float latency with duration units.
func fmtSeconds(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}
