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
//	bxtd -debug=false                      # disable /debug/pprof and /debug/events
//	bxtd -chaos seed=7,corrupt=0.01        # fault drill: sabotage own serving path
//	bxtd -simcache -simcache-snapshot /var/lib/bxtd/sim  # similarity cache + warm restarts
//	bxtd -schemes                          # list servable scheme names
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes,
// /healthz flips to 503 draining, in-flight batches complete, then it
// exits. With -state-dir set, sessions on snapshottable schemes persist
// their codec state there as they close during the drain. For
// zero-downtime rollouts, POST /drain on the metrics port first: the
// daemon turns lame-duck (health 503, new connections refused) while
// established sessions keep serving, so a fronting bxtproxy live-migrates
// pinned stateful sessions to other backends before the SIGTERM lands.
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
	def := config.DefaultServer()
	listen := flag.String("listen", def.ListenAddr, "transcoding listen address")
	metrics := flag.String("metrics", def.MetricsAddr, "metrics/health listen address")
	workers := flag.Int("workers", def.Workers, "concurrent batch encodes server-wide")
	maxConns := flag.Int("max-conns", def.MaxConns, "connection limit")
	batchLimit := flag.Int("batch-limit", def.BatchLimit, "max transactions per batch")
	readTimeout := flag.Duration("read-timeout", def.ReadTimeout, "per-frame read deadline")
	writeTimeout := flag.Duration("write-timeout", def.WriteTimeout, "per-frame write deadline")
	drainTimeout := flag.Duration("drain-timeout", def.DrainTimeout, "shutdown drain budget")
	defScheme := flag.String("scheme", def.DefaultScheme, `scheme served when clients ask for "default"`)
	baseSize := flag.Int("base", def.BaseSize, "element size in bytes for Base+XOR family schemes")
	stages := flag.Int("stages", def.Stages, "halving stages for the universal scheme")
	width := flag.Int("width", def.ChannelWidthBits, "channel width in bits")
	logLevel := flag.String("log-level", def.LogLevel, "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", def.LogFormat, "log handler: text or json")
	slowBatch := flag.Duration("slow-batch", def.SlowBatch, "processing time above which a batch is logged as slow")
	debug := flag.Bool("debug", def.Debug, "serve /debug/pprof/ and /debug/events on the metrics port")
	events := flag.Int("events", def.EventBuffer, "lifecycle events retained by /debug/events")
	faultBudget := flag.Int("fault-budget", def.FaultBudget, "recoverable batch faults tolerated per session before disconnect")
	admitTimeout := flag.Duration("admit-timeout", def.AdmitTimeout, "worker-slot wait above which a batch is shed with a Busy reply")
	maxPending := flag.Int("max-pending", def.MaxPending, "batches waiting for workers before immediate shedding")
	streamLimit := flag.Int("stream-limit", def.StreamLimit, "logical streams allowed per multiplexed (v4) connection")
	traceBuffer := flag.Int("trace-buffer", def.TraceBuffer, "batch spans retained by /debug/trace")
	stateDir := flag.String("state-dir", def.StateDir, "directory for drain-time session state snapshots (empty disables)")
	chaos := flag.String("chaos", "", "self-sabotage for fault drills: inject faults per this spec, e.g. seed=7,corrupt=0.01,panic=0.001 (keys: seed, corrupt, drop, truncate, delay, delay-ms, stall, stall-ms, err, panic)")
	simcache := flag.Bool("simcache", def.SimCache.Enabled, "serve repeated and near-repeated transactions from the similarity cache (deterministic schemes only)")
	simcacheCap := flag.Int("simcache-capacity", def.SimCache.Capacity, "similarity cache entries per (scheme, txn-size) instance (0 selects the default)")
	simcacheThreshold := flag.Int("simcache-threshold", def.SimCache.Threshold, "Hamming bits below which a cached transaction counts as a near-duplicate (0 selects the default)")
	simcacheBands := flag.Int("simcache-bands", def.SimCache.Bands, "LSH bands cut from the transaction signature (0 selects the default)")
	simcacheShards := flag.Int("simcache-shards", def.SimCache.Shards, "independently locked similarity cache shards (0 selects the default)")
	simcacheSnapshot := flag.String("simcache-snapshot", def.SimCache.SnapshotPath, "base path for similarity cache warm-restart snapshots (empty disables persistence)")
	listSchemes := flag.Bool("schemes", false, "list servable scheme names")
	flag.Parse()

	if *listSchemes {
		for _, n := range scheme.Names() {
			fmt.Println(n)
		}
		return
	}

	cfg := config.Server{
		ListenAddr:       *listen,
		MetricsAddr:      *metrics,
		Workers:          *workers,
		MaxConns:         *maxConns,
		BatchLimit:       *batchLimit,
		ReadTimeout:      *readTimeout,
		WriteTimeout:     *writeTimeout,
		DrainTimeout:     *drainTimeout,
		DefaultScheme:    *defScheme,
		BaseSize:         *baseSize,
		Stages:           *stages,
		ChannelWidthBits: *width,
		LogLevel:         *logLevel,
		LogFormat:        *logFormat,
		SlowBatch:        *slowBatch,
		Debug:            *debug,
		EventBuffer:      *events,
		FaultBudget:      *faultBudget,
		AdmitTimeout:     *admitTimeout,
		MaxPending:       *maxPending,
		StreamLimit:      *streamLimit,
		TraceBuffer:      *traceBuffer,
		StateDir:         *stateDir,
		SimCache: config.SimCache{
			Enabled:      *simcache,
			Capacity:     *simcacheCap,
			Threshold:    *simcacheThreshold,
			Bands:        *simcacheBands,
			Shards:       *simcacheShards,
			SnapshotPath: *simcacheSnapshot,
		},
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
		"default_scheme", cfg.DefaultScheme,
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
