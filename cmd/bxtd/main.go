// Command bxtd is the Base+XOR transcoding gateway: a TCP daemon that
// encodes transaction batches with any registry scheme and reports
// wire-level activity and energy accounting per batch, with Prometheus
// metrics, health, and optional pprof/event debugging on a second port.
//
// Usage:
//
//	bxtd                                   # defaults: :9650 serving, :9651 metrics
//	bxtd -listen :7000 -metrics :7001 -workers 16
//	bxtd -log-level debug -log-format json # structured logs to stderr
//	bxtd -debug=false                      # disable /debug/pprof, /debug/events, /debug/trace, /debug/poison
//	bxtd -chaos seed=7,corrupt=0.01        # fault drill: sabotage own serving path
//	bxtd -simcache                         # serve repeats from the similarity cache
//	bxtd -schemes                          # list servable scheme names
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes,
// /healthz flips to 503 draining, in-flight batches complete, then it
// exits. It writes nothing to disk: codec state and cache contents end
// with the process. For zero-downtime rollouts, POST /drain on the metrics
// port first: the daemon turns lame-duck (health 503, new connections
// refused) while established sessions keep serving, so a fronting bxtproxy
// live-migrates pinned stateful sessions to other backends before the
// SIGTERM lands.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/server"
)

func main() {
	cfg := config.DefaultServer()
	flag.StringVar(&cfg.ListenAddr, "listen", cfg.ListenAddr, "transcoding listen address")
	flag.StringVar(&cfg.MetricsAddr, "metrics", cfg.MetricsAddr, "metrics/health listen address")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "concurrent batch encodes server-wide")
	flag.IntVar(&cfg.MaxConns, "max-conns", cfg.MaxConns, "connection limit")
	flag.IntVar(&cfg.BatchLimit, "batch-limit", cfg.BatchLimit, "max transactions per batch")
	flag.DurationVar(&cfg.ReadTimeout, "read-timeout", cfg.ReadTimeout, "per-frame read deadline")
	flag.DurationVar(&cfg.WriteTimeout, "write-timeout", cfg.WriteTimeout, "per-frame write deadline")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "shutdown drain budget")
	flag.IntVar(&cfg.ChannelWidthBits, "width", cfg.ChannelWidthBits, "channel width in bits")
	flag.StringVar(&cfg.LogLevel, "log-level", cfg.LogLevel, "log level: debug, info, warn, error")
	flag.StringVar(&cfg.LogFormat, "log-format", cfg.LogFormat, "log handler: text or json")
	flag.DurationVar(&cfg.SlowBatch, "slow-batch", cfg.SlowBatch, "processing time above which a batch is logged as slow")
	flag.BoolVar(&cfg.Debug, "debug", cfg.Debug, "serve /debug/pprof/, /debug/events, /debug/trace and /debug/poison on the metrics port")
	flag.IntVar(&cfg.EventBuffer, "events", cfg.EventBuffer, "lifecycle events retained by /debug/events")
	flag.IntVar(&cfg.FaultBudget, "fault-budget", cfg.FaultBudget, "recoverable batch faults tolerated per stream before the stream is closed")
	flag.DurationVar(&cfg.AdmitTimeout, "admit-timeout", cfg.AdmitTimeout, "worker-slot wait above which a batch is shed with a Busy reply")
	flag.IntVar(&cfg.MaxPending, "max-pending", cfg.MaxPending, "batches waiting for workers before immediate shedding")
	flag.IntVar(&cfg.StreamLimit, "stream-limit", cfg.StreamLimit, "logical streams allowed per multiplexed connection")
	flag.IntVar(&cfg.TraceBuffer, "trace-buffer", cfg.TraceBuffer, "batch spans retained by /debug/trace")
	chaos := flag.String("chaos", "", "self-sabotage for fault drills: inject faults per this spec, e.g. seed=7,corrupt=0.01,panic=0.001 (keys: seed, corrupt, drop, truncate, delay, delay-ms, stall, stall-ms, err, panic)")
	flag.BoolVar(&cfg.SimCache.Enabled, "simcache", cfg.SimCache.Enabled, "serve repeated and near-repeated transactions from the similarity cache (deterministic schemes only)")
	flag.IntVar(&cfg.SimCache.Capacity, "simcache-capacity", cfg.SimCache.Capacity, "similarity cache entries per (scheme, txn-size) instance (0 selects the default)")
	flag.IntVar(&cfg.SimCache.Threshold, "simcache-threshold", cfg.SimCache.Threshold, "Hamming bits below which a cached transaction counts as a near-duplicate (0 selects the default)")
	flag.IntVar(&cfg.SimCache.Bands, "simcache-bands", cfg.SimCache.Bands, "LSH bands cut from the transaction signature (0 selects the default)")
	flag.IntVar(&cfg.SimCache.Shards, "simcache-shards", cfg.SimCache.Shards, "independently locked similarity cache shards (0 selects the default)")
	listSchemes := flag.Bool("schemes", false, "list servable scheme names")
	flag.Parse()

	if *listSchemes {
		for _, n := range scheme.Names() {
			fmt.Println(n)
		}
		return
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bxtd:", err)
		os.Exit(1)
	}
	var inj *faults.Injector
	if *chaos != "" {
		fcfg, err := faults.ParseSpec(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bxtd:", err)
			os.Exit(1)
		}
		inj, err = faults.New(fcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bxtd:", err)
			os.Exit(1)
		}
		srv.SetFaults(inj)
	}
	logger := srv.Logger()
	if err := srv.Start(); err != nil {
		logger.Error("start failed", "err", err)
		os.Exit(1)
	}
	logger.Info("serving",
		"addr", srv.Addr(),
		"metrics_addr", srv.MetricsAddr(),
		"debug", cfg.Debug)
	if inj != nil {
		logger.Warn("chaos mode: injecting faults into own serving path", "spec", *chaos)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	logger.Info("signal received, draining", "signal", got.String(), "budget", cfg.DrainTimeout.String())

	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("drain incomplete", "after", time.Since(start).Round(time.Millisecond).String(), "err", err)
	} else {
		logger.Info("drained", "took", time.Since(start).Round(time.Millisecond).String())
	}
	srv.Close()
	if inj != nil {
		logger.Info("chaos totals", "injected", inj.Counts().String())
	}
}
