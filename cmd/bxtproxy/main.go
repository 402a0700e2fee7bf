// Command bxtproxy is the sharded serving tier in front of a bxtd fleet:
// a BXTP-speaking proxy that accepts client sessions and fans their
// batches across N transcoding backends, with health-checked routing,
// session pinning for decode-stateful schemes, and failover that converts
// dead-backend batches into recoverable replies instead of disconnects.
//
// Usage:
//
//	bxtproxy -backends 10.0.0.1:9650,10.0.0.2:9650,10.0.0.3:9650
//	bxtproxy -listen :9660 -metrics :9661
//	bxtproxy -chaos seed=7,corrupt=0.01       # sabotage the backend leg
//
// Pinned sessions on snapshottable schemes fail over without a client
// reset: the proxy pulls the dying backend's codec state (live, or from a
// periodic shadow snapshot) and replays it into the new pin, so the
// client's decoder continues byte-identically. POST
// /drain?backend=ADDR on the metrics port marks one backend draining —
// routing avoids it while pinned sessions live-migrate off it — for
// zero-downtime backend rollouts.
//
// The fleet is dynamic: POST /backends?add=ADDR or ?remove=ADDR on the
// metrics port grows or shrinks it without a restart, and with
// -backends-file the proxy re-reads the file (one address per line, #
// comments) on SIGHUP and reconciles the fleet against it.
//
// The proxy drains gracefully on SIGINT/SIGTERM: the listener closes,
// /healthz flips to 503 draining, in-flight batches complete, then it
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/proxy"
)

func main() {
	cfg := config.DefaultProxy()
	flag.StringVar(&cfg.ListenAddr, "listen", cfg.ListenAddr, "client-facing BXTP listen address")
	flag.StringVar(&cfg.MetricsAddr, "metrics", cfg.MetricsAddr, "metrics/health listen address")
	backends := flag.String("backends", strings.Join(cfg.Backends, ","), "comma-separated bxtd backend addresses")
	backendsFile := flag.String("backends-file", "", "file of backend addresses, one per line (# comments); overrides -backends, re-read on SIGHUP")
	flag.IntVar(&cfg.MaxConns, "max-conns", cfg.MaxConns, "client connection limit")
	flag.DurationVar(&cfg.ReadTimeout, "read-timeout", cfg.ReadTimeout, "per-frame client read deadline")
	flag.DurationVar(&cfg.WriteTimeout, "write-timeout", cfg.WriteTimeout, "per-frame client write deadline")
	flag.DurationVar(&cfg.DialTimeout, "dial-timeout", cfg.DialTimeout, "backend dial + handshake deadline")
	flag.DurationVar(&cfg.ExchangeTimeout, "exchange-timeout", cfg.ExchangeTimeout, "backend batch round-trip deadline")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "shutdown drain budget")
	flag.DurationVar(&cfg.HealthInterval, "health-interval", cfg.HealthInterval, "gap between backend Hello probes")
	flag.StringVar(&cfg.ProbeScheme, "probe-scheme", cfg.ProbeScheme, "registry scheme health probes handshake with")
	flag.IntVar(&cfg.EjectThreshold, "eject-threshold", cfg.EjectThreshold, "consecutive failures that eject a backend")
	flag.DurationVar(&cfg.RetryHint, "retry-hint", cfg.RetryHint, "retry-after carried by failover Busy replies")
	flag.DurationVar(&cfg.StateTransferTimeout, "state-timeout", cfg.StateTransferTimeout, "deadline for one failover state snapshot or restore exchange")
	flag.IntVar(&cfg.ShadowInterval, "shadow-interval", cfg.ShadowInterval, "batches between shadow snapshots of pinned stateful sessions (0 disables)")
	flag.IntVar(&cfg.StreamLimit, "stream-limit", cfg.StreamLimit, "logical streams allowed per multiplexed client connection")
	flag.Float64Var(&cfg.BoundedLoadFactor, "bounded-load", cfg.BoundedLoadFactor, "pinned-placement load bound as a multiple of mean in-flight batches (0 disables)")
	flag.StringVar(&cfg.LogLevel, "log-level", cfg.LogLevel, "log level: debug, info, warn, error")
	flag.StringVar(&cfg.LogFormat, "log-format", cfg.LogFormat, "log handler: text or json")
	flag.BoolVar(&cfg.Debug, "debug", cfg.Debug, "serve /debug/pprof/ and /debug/trace on the metrics port")
	flag.IntVar(&cfg.TraceBuffer, "trace-buffer", cfg.TraceBuffer, "relay spans retained by /debug/trace")
	chaos := flag.String("chaos", "", "fault drill: inject faults into the backend leg per this spec, e.g. seed=7,corrupt=0.01 (keys: seed, corrupt, drop, truncate, delay, delay-ms, stall, stall-ms, err, panic)")
	flag.Parse()

	cfg.Backends = splitBackends(*backends)
	if *backendsFile != "" {
		var err error
		if cfg.Backends, err = readBackendsFile(*backendsFile); err != nil {
			fmt.Fprintln(os.Stderr, "bxtproxy:", err)
			os.Exit(1)
		}
	}
	px, err := proxy.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bxtproxy:", err)
		os.Exit(1)
	}
	var inj *faults.Injector
	if *chaos != "" {
		fcfg, err := faults.ParseSpec(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bxtproxy:", err)
			os.Exit(1)
		}
		inj, err = faults.New(fcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bxtproxy:", err)
			os.Exit(1)
		}
		px.SetFaults(inj)
	}
	logger := px.Logger()
	if err := px.Start(); err != nil {
		logger.Error("start failed", "err", err)
		os.Exit(1)
	}
	logger.Info("proxying",
		"addr", px.Addr(),
		"metrics_addr", px.MetricsAddr(),
		"backends", cfg.Backends)
	if inj != nil {
		logger.Warn("chaos mode: injecting faults into the backend leg", "spec", *chaos)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	var got os.Signal
	for got = range sig {
		if got != syscall.SIGHUP {
			break
		}
		// SIGHUP: reconcile the fleet against the backends file. A reload
		// that fails (unreadable file, empty list) keeps the current fleet.
		if *backendsFile == "" {
			logger.Warn("SIGHUP ignored: no -backends-file to reload")
			continue
		}
		addrs, err := readBackendsFile(*backendsFile)
		if err != nil {
			logger.Error("backends reload failed", "file", *backendsFile, "err", err)
			continue
		}
		if err := px.SetBackends(addrs); err != nil {
			logger.Error("backends reload failed", "file", *backendsFile, "err", err)
			continue
		}
		logger.Info("backends reloaded", "file", *backendsFile, "fleet", addrs)
	}
	logger.Info("signal received, draining", "signal", got.String(), "budget", cfg.DrainTimeout.String())

	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	start := time.Now()
	if err := px.Shutdown(ctx); err != nil {
		logger.Error("drain incomplete", "after", time.Since(start).Round(time.Millisecond).String(), "err", err)
	} else {
		logger.Info("drained", "took", time.Since(start).Round(time.Millisecond).String())
	}
	px.Close()
	if inj != nil {
		logger.Info("chaos totals", "injected", inj.Counts().String())
	}
}

// splitBackends parses the -backends flag, dropping empty entries so
// trailing commas don't become invalid addresses.
func splitBackends(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// readBackendsFile parses a backends file: one address per line, blank
// lines and #-comments ignored.
func readBackendsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("backends file: %w", err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("backends file %s lists no backends", path)
	}
	return out, nil
}
