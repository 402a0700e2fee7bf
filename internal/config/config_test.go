package config

import (
	"strings"
	"testing"
	"time"
)

// TestTitanXGeometry pins the Table I derived quantities.
func TestTitanXGeometry(t *testing.T) {
	g := TitanX()
	if g.Channels() != 12 {
		t.Errorf("Channels = %d, want 12 (384-bit bus of 32-bit channels)", g.Channels())
	}
	if g.BeatsPerTransaction() != 8 {
		t.Errorf("BeatsPerTransaction = %d, want 8 (32-byte sector on 32-bit channel)", g.BeatsPerTransaction())
	}
	if g.CacheLineBytes/g.SectorBytes != 4 {
		t.Errorf("sectors per line = %d, want 4", g.CacheLineBytes/g.SectorBytes)
	}
	// Bandwidth consistency: 384 bits × 10 Gbps = 480 GB/s.
	if got := float64(g.BusWidthBits) * g.DataRateGbps / 8; got != g.BandwidthGBps {
		t.Errorf("bandwidth %v GB/s inconsistent with bus width and data rate (%v)", g.BandwidthGBps, got)
	}
}

// TestServerValidate exercises every Validate error path with one mutation
// of the default configuration per case.
func TestServerValidate(t *testing.T) {
	if err := DefaultServer().Validate(); err != nil {
		t.Fatalf("DefaultServer().Validate() = %v, want nil", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Server)
		wantSub string
	}{
		{"empty listen addr", func(s *Server) { s.ListenAddr = "" }, "listen address"},
		{"empty metrics addr", func(s *Server) { s.MetricsAddr = "" }, "metrics address"},
		{"zero workers", func(s *Server) { s.Workers = 0 }, "worker count"},
		{"negative workers", func(s *Server) { s.Workers = -4 }, "worker count"},
		{"zero conn limit", func(s *Server) { s.MaxConns = 0 }, "connection limit"},
		{"zero batch limit", func(s *Server) { s.BatchLimit = 0 }, "batch limit"},
		{"zero read timeout", func(s *Server) { s.ReadTimeout = 0 }, "timeouts"},
		{"negative write timeout", func(s *Server) { s.WriteTimeout = -time.Second }, "timeouts"},
		{"zero drain timeout", func(s *Server) { s.DrainTimeout = 0 }, "drain timeout"},
		{"zero channel width", func(s *Server) { s.ChannelWidthBits = 0 }, "channel width"},
		{"ragged channel width", func(s *Server) { s.ChannelWidthBits = 30 }, "channel width"},
		{"bad log level", func(s *Server) { s.LogLevel = "loud" }, "log level"},
		{"empty log level", func(s *Server) { s.LogLevel = "" }, "log level"},
		{"bad log format", func(s *Server) { s.LogFormat = "xml" }, "log format"},
		{"zero slow-batch threshold", func(s *Server) { s.SlowBatch = 0 }, "slow-batch"},
		{"zero event buffer", func(s *Server) { s.EventBuffer = 0 }, "event buffer"},
		{"zero fault budget", func(s *Server) { s.FaultBudget = 0 }, "fault budget"},
		{"negative fault budget", func(s *Server) { s.FaultBudget = -1 }, "fault budget"},
		{"zero admit timeout", func(s *Server) { s.AdmitTimeout = 0 }, "admit timeout"},
		{"zero pending limit", func(s *Server) { s.MaxPending = 0 }, "pending batch limit"},
		{"zero stream limit", func(s *Server) { s.StreamLimit = 0 }, "stream limit"},
		{"negative simcache capacity", func(s *Server) {
			s.SimCache = SimCache{Enabled: true, Capacity: -1}
		}, "simcache capacity"},
		{"negative simcache threshold", func(s *Server) {
			s.SimCache = SimCache{Enabled: true, Threshold: -1}
		}, "simcache threshold"},
		{"negative simcache bands", func(s *Server) {
			s.SimCache = SimCache{Enabled: true, Bands: -1}
		}, "simcache band count"},
		{"negative simcache shards", func(s *Server) {
			s.SimCache = SimCache{Enabled: true, Shards: -1}
		}, "simcache shard count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultServer()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Validate() = %q, want mention of %q", err, tc.wantSub)
			}
		})
	}
}

func TestProxyValidate(t *testing.T) {
	if err := DefaultProxy().Validate(); err != nil {
		t.Fatalf("DefaultProxy().Validate() = %v, want nil", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Proxy)
		wantSub string
	}{
		{"empty listen addr", func(p *Proxy) { p.ListenAddr = "" }, "listen address"},
		{"empty metrics addr", func(p *Proxy) { p.MetricsAddr = "" }, "metrics address"},
		{"no backends", func(p *Proxy) { p.Backends = nil }, "no backends"},
		{"empty backend addr", func(p *Proxy) { p.Backends = []string{"127.0.0.1:9650", ""} }, "empty backend"},
		{"duplicate backend", func(p *Proxy) { p.Backends = []string{"a:1", "b:2", "a:1"} }, "duplicate backend"},
		{"zero conn limit", func(p *Proxy) { p.MaxConns = 0 }, "connection limit"},
		{"zero read timeout", func(p *Proxy) { p.ReadTimeout = 0 }, "timeouts"},
		{"negative write timeout", func(p *Proxy) { p.WriteTimeout = -time.Second }, "timeouts"},
		{"zero dial timeout", func(p *Proxy) { p.DialTimeout = 0 }, "timeouts"},
		{"zero exchange timeout", func(p *Proxy) { p.ExchangeTimeout = 0 }, "timeouts"},
		{"zero drain timeout", func(p *Proxy) { p.DrainTimeout = 0 }, "drain timeout"},
		{"zero health interval", func(p *Proxy) { p.HealthInterval = 0 }, "health interval"},
		{"bad probe scheme", func(p *Proxy) { p.ProbeScheme = "turbo-xor" }, "probe scheme"},
		{"empty probe scheme", func(p *Proxy) { p.ProbeScheme = "" }, "probe scheme"},
		{"zero eject threshold", func(p *Proxy) { p.EjectThreshold = 0 }, "eject threshold"},
		{"zero retry hint", func(p *Proxy) { p.RetryHint = 0 }, "retry hint"},
		{"bad log level", func(p *Proxy) { p.LogLevel = "loud" }, "log level"},
		{"bad log format", func(p *Proxy) { p.LogFormat = "xml" }, "log format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultProxy()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Validate() = %q, want mention of %q", err, tc.wantSub)
			}
		})
	}
}

// TestSPECSystemGeometry checks the §VI-G CPU configuration.
func TestSPECSystemGeometry(t *testing.T) {
	c := SPECSystem()
	if c.Cores != 1 || c.CacheLineBytes != 64 || c.BusWidthBits != 64 {
		t.Errorf("unexpected CPU system %+v", c)
	}
}

func TestSimCacheValidate(t *testing.T) {
	// Disabled caches skip all field checks: garbage values must not fail
	// a deployment that never turns the tier on.
	bad := SimCache{Enabled: false, Capacity: -5, Threshold: -5, Bands: -5, Shards: -5}
	if err := bad.Validate(); err != nil {
		t.Errorf("disabled simcache rejected: %v", err)
	}
	// Zero fields (defaults) validate when enabled.
	if err := (SimCache{Enabled: true}).Validate(); err != nil {
		t.Errorf("enabled simcache with defaults rejected: %v", err)
	}
	if err := (SimCache{Enabled: true, Capacity: 1024, Threshold: 8, Bands: 32, Shards: 4}).Validate(); err != nil {
		t.Errorf("fully specified simcache rejected: %v", err)
	}
}
