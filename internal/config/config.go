// Package config holds the evaluated system configuration of Table I: an
// NVIDIA Titan X (Pascal) class GPU with a 384-bit, 12 GB GDDR5X memory
// system, plus the DDR4-based CPU system of §VI-G, and the serving
// parameters of the bxtd encoding gateway. Every experiment and substrate
// reads its parameters from here so the whole repository agrees on one
// system description.
package config

import (
	"fmt"
	"strings"
	"time"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/scheme"
)

// GPU describes the GPU system under evaluation (Table I).
type GPU struct {
	// Name identifies the configuration in reports.
	Name string
	// StreamingMultiprocessors is the number of SMs (compute units).
	StreamingMultiprocessors int
	// LastLevelCacheBytes is the total LLC capacity.
	LastLevelCacheBytes int
	// CacheLineBytes and SectorBytes describe the sectored cache geometry:
	// 128-byte lines of four 32-byte sectors; a DRAM transaction moves one
	// sector.
	CacheLineBytes int
	SectorBytes    int
	// BusWidthBits is the aggregate DRAM bus width (384 bits = twelve
	// 32-bit channels).
	BusWidthBits int
	// ChannelWidthBits is the width of one GDDR5X channel.
	ChannelWidthBits int
	// MemoryBytes is the DRAM capacity.
	MemoryBytes int64
	// DataRateGbps is the per-pin data rate.
	DataRateGbps float64
	// BandwidthGBps is the total channel bandwidth.
	BandwidthGBps float64
	// Utilization is the average DRAM bandwidth utilization assumed by the
	// energy evaluation (§VI-F assumes 70 %).
	Utilization float64
}

// TitanX returns the Table I configuration.
func TitanX() GPU {
	return GPU{
		Name:                     "NVIDIA Titan X (Pascal)",
		StreamingMultiprocessors: 56,
		LastLevelCacheBytes:      4 << 20,
		CacheLineBytes:           128,
		SectorBytes:              32,
		BusWidthBits:             384,
		ChannelWidthBits:         32,
		MemoryBytes:              12 << 30,
		DataRateGbps:             10,
		BandwidthGBps:            480,
		Utilization:              0.70,
	}
}

// Channels returns the number of independent GDDR5X channels.
func (g GPU) Channels() int { return g.BusWidthBits / g.ChannelWidthBits }

// BeatsPerTransaction returns how many bus beats one sector transfer takes
// on a single channel (eight for 32-byte sectors on a 32-bit channel).
func (g GPU) BeatsPerTransaction() int {
	return g.SectorBytes * 8 / g.ChannelWidthBits
}

// CPU describes the DDR4-based CPU system of §VI-G: a single core with a
// 4 MB last-level cache and conventional 64-byte cache lines.
type CPU struct {
	Name                string
	Cores               int
	LastLevelCacheBytes int
	CacheLineBytes      int
	BusWidthBits        int
	DataRateGbps        float64
}

// SPECSystem returns the CPU configuration used for Fig 18.
func SPECSystem() CPU {
	return CPU{
		Name:                "single-core DDR4 system",
		Cores:               1,
		LastLevelCacheBytes: 4 << 20,
		CacheLineBytes:      64,
		BusWidthBits:        64,
		DataRateGbps:        3.2,
	}
}

// Listener configures the connection host bxtd and bxtproxy share
// (internal/serve): the BXTP and metrics listeners, the session cap, the
// per-frame deadlines, the drain budget, logging, and the debug surfaces.
type Listener struct {
	// ListenAddr is the BXTP listener's TCP address.
	ListenAddr string
	// MetricsAddr is the HTTP /metrics + /healthz listener's address.
	MetricsAddr string
	// MaxConns caps simultaneous client sessions; connections beyond the
	// cap are refused with an Error frame.
	MaxConns int
	// ReadTimeout bounds the wait for one frame from an idle client;
	// WriteTimeout bounds one reply write to a slow client. Either
	// expiring tears the session down so it cannot hold its slot.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: sessions still open after it
	// are force-closed.
	DrainTimeout time.Duration
	// LogLevel and LogFormat select the structured-log verbosity (debug,
	// info, warn, error) and handler (text, json).
	LogLevel  string
	LogFormat string
	// Debug mounts net/http/pprof under /debug/pprof/ on the metrics
	// listener, plus each tier's debug surfaces: bxtd's /debug/events,
	// /debug/trace and /debug/poison, and bxtproxy's /debug/trace. When
	// false those paths answer 404.
	Debug bool
	// TraceBuffer is how many batch spans the /debug/trace ring retains.
	TraceBuffer int
}

// defaultListener is both tiers' host configuration, listening on the
// given addresses.
func defaultListener(listen, metrics string) Listener {
	return Listener{
		ListenAddr:   listen,
		MetricsAddr:  metrics,
		MaxConns:     256,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
		DrainTimeout: 10 * time.Second,
		LogLevel:     "info",
		LogFormat:    "text",
		Debug:        true,
		TraceBuffer:  2048,
	}
}

// Validate reports the first configuration error, or nil.
func (l Listener) Validate() error {
	if l.ListenAddr == "" {
		return fmt.Errorf("config: empty listen address")
	}
	if l.MetricsAddr == "" {
		return fmt.Errorf("config: empty metrics address")
	}
	if l.MaxConns <= 0 {
		return fmt.Errorf("config: connection limit %d is not positive", l.MaxConns)
	}
	if l.ReadTimeout <= 0 || l.WriteTimeout <= 0 {
		return fmt.Errorf("config: read/write timeouts must be positive (got %v, %v)", l.ReadTimeout, l.WriteTimeout)
	}
	if l.DrainTimeout <= 0 {
		return fmt.Errorf("config: drain timeout %v is not positive", l.DrainTimeout)
	}
	if _, err := obs.ParseLevel(l.LogLevel); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if f := strings.ToLower(l.LogFormat); f != "text" && f != "json" {
		return fmt.Errorf("config: unknown log format %q (want text or json)", l.LogFormat)
	}
	if l.TraceBuffer <= 0 {
		return fmt.Errorf("config: trace buffer size %d is not positive", l.TraceBuffer)
	}
	return nil
}

// Server configures the bxtd encoding gateway: the connection host, the
// worker pool bounding concurrent batch encodes and per-connection limits.
// Codec parameters are not configured here: each scheme name fixes them
// (see package scheme), so every peer that names a scheme agrees on it.
type Server struct {
	Listener
	// Workers bounds how many batches encode concurrently across all
	// connections.
	Workers int
	// BatchLimit is the maximum transaction count accepted per batch
	// frame, advertised to clients in the handshake.
	BatchLimit int
	// ChannelWidthBits is the modeled bus width for per-session wire
	// activity accounting.
	ChannelWidthBits int
	// SlowBatch is the server-side processing time (encode + accounting)
	// above which a batch is logged and recorded as a slow_batch event.
	SlowBatch time.Duration
	// EventBuffer is how many lifecycle events /debug/events retains.
	EventBuffer int
	// FaultBudget is how many recoverable batch faults (malformed or
	// corrupt batches, codec errors, codec panics) one stream may
	// accumulate before the gateway closes that stream with an unprompted
	// StreamClosed; the connection and its other streams keep serving.
	FaultBudget int
	// AdmitTimeout bounds how long a parsed batch may wait for a worker
	// slot before the gateway sheds it with a retryable Busy reply.
	AdmitTimeout time.Duration
	// MaxPending caps batches queued for worker slots across all
	// sessions; beyond it batches are shed immediately instead of
	// deepening the queue.
	MaxPending int
	// StreamLimit caps the logical streams one connection may hold open
	// at once; StreamOpen frames beyond it are refused (the connection
	// itself stays up).
	StreamLimit int
	// SimCache configures the similarity-aware transcoding cache tier.
	SimCache SimCache
}

// SimCache configures the gateway's similarity-aware transcoding cache: an
// optional layer that serves repeated and near-repeated transactions from
// cached encodings instead of re-running the codec. Only schemes whose
// encode is a pure function of the transaction (scheme.Cacheable) go through
// it; sessions on other schemes bypass the cache entirely.
type SimCache struct {
	// Enabled turns the cache tier on. All other fields are ignored when
	// false.
	Enabled bool
	// Capacity is the maximum cached entries per (scheme, transaction
	// size) cache; 0 selects the simcache default (65535).
	Capacity int
	// Threshold is the exclusive Hamming-distance cutoff in bits for
	// near-duplicate hits; 0 selects the simcache default (12, matching
	// BD-Encoding's similarity cutoff).
	Threshold int
	// Bands is the LSH band count over the transaction signature; 0
	// selects the simcache default (16). Near-duplicate recall within a
	// shard is guaranteed while Threshold < Bands.
	Bands int
	// Shards is the lock-sharding factor; 0 selects the simcache default.
	Shards int
}

// Validate reports the first similarity-cache configuration error, or nil.
// Geometry that depends on the per-session transaction size (band alignment)
// is checked when a cache instance is built, not here.
func (s SimCache) Validate() error {
	if !s.Enabled {
		return nil
	}
	if s.Capacity < 0 {
		return fmt.Errorf("config: simcache capacity %d is negative", s.Capacity)
	}
	if s.Threshold < 0 {
		return fmt.Errorf("config: simcache threshold %d is negative", s.Threshold)
	}
	if s.Bands < 0 {
		return fmt.Errorf("config: simcache band count %d is negative", s.Bands)
	}
	if s.Shards < 0 {
		return fmt.Errorf("config: simcache shard count %d is negative", s.Shards)
	}
	return nil
}

// DefaultServer returns the gateway's default configuration: the Table I
// channel, 8 workers, 256 connections.
func DefaultServer() Server {
	return Server{
		Listener:         defaultListener("127.0.0.1:9650", "127.0.0.1:9651"),
		Workers:          8,
		BatchLimit:       4096,
		ChannelWidthBits: TitanX().ChannelWidthBits,
		SlowBatch:        250 * time.Millisecond,
		EventBuffer:      256,
		FaultBudget:      16,
		AdmitTimeout:     500 * time.Millisecond,
		MaxPending:       32,
		StreamLimit:      4096,
	}
}

// Validate reports the first configuration error, or nil.
func (s Server) Validate() error {
	if err := s.Listener.Validate(); err != nil {
		return err
	}
	if s.Workers <= 0 {
		return fmt.Errorf("config: worker count %d is not positive", s.Workers)
	}
	if s.BatchLimit <= 0 {
		return fmt.Errorf("config: batch limit %d is not positive", s.BatchLimit)
	}
	if s.ChannelWidthBits <= 0 || s.ChannelWidthBits%8 != 0 {
		return fmt.Errorf("config: channel width %d is not a positive multiple of 8", s.ChannelWidthBits)
	}
	if s.SlowBatch <= 0 {
		return fmt.Errorf("config: slow-batch threshold %v is not positive", s.SlowBatch)
	}
	if s.EventBuffer <= 0 {
		return fmt.Errorf("config: event buffer size %d is not positive", s.EventBuffer)
	}
	if s.FaultBudget <= 0 {
		return fmt.Errorf("config: fault budget %d is not positive", s.FaultBudget)
	}
	if s.AdmitTimeout <= 0 {
		return fmt.Errorf("config: admit timeout %v is not positive", s.AdmitTimeout)
	}
	if s.MaxPending <= 0 {
		return fmt.Errorf("config: pending batch limit %d is not positive", s.MaxPending)
	}
	if s.StreamLimit <= 0 {
		return fmt.Errorf("config: stream limit %d is not positive", s.StreamLimit)
	}
	if err := s.SimCache.Validate(); err != nil {
		return err
	}
	return nil
}

// Proxy configures bxtproxy, the sharded serving tier that fronts a fleet
// of bxtd backends: the client-facing connection host, the backend set,
// health probing and outlier ejection, and the conversion hint returned
// when a dead backend's in-flight batch is bounced back to the client as
// retryable.
type Proxy struct {
	Listener
	// Backends are the bxtd transcoding addresses batches fan out across.
	Backends []string
	// DialTimeout bounds one backend dial plus handshake; ExchangeTimeout
	// bounds one full batch round trip on the backend leg. Keep
	// ExchangeTimeout below the clients' IO timeout: the proxy must give
	// up on a stalled backend and answer with a recoverable reply while
	// the client is still listening, or the client breaks the connection
	// the failover machinery exists to preserve.
	DialTimeout     time.Duration
	ExchangeTimeout time.Duration
	// HealthInterval is the gap between BXTP Hello probes of each backend;
	// ProbeScheme is the registry scheme the probe handshakes with.
	HealthInterval time.Duration
	ProbeScheme    string
	// EjectThreshold is how many consecutive failures (probes or live
	// traffic) eject a backend from routing. A later successful probe
	// restores it.
	EjectThreshold int
	// RetryHint is the retry-after carried by the Busy reply that converts
	// a dead backend's in-flight batch into a client-side retry.
	RetryHint time.Duration
	// StateTransferTimeout bounds one state snapshot or restore exchange
	// with a backend during pinned-session failover. Keep it short: the
	// transfer runs while the client's batch waits, and the fallback (a
	// codec-reset BatchError) is always available.
	StateTransferTimeout time.Duration
	// ShadowInterval is how many relayed batches between shadow snapshots
	// of a pinned stateful session's upstream codec: the proxy pulls a
	// snapshot every N batches so a backend that dies without warning can
	// still be failed over from the last shadow, provided no batch landed
	// since. 0 disables shadow snapshots (failover then relies on a live
	// pull from the dying backend).
	ShadowInterval int
	// StreamLimit caps the logical streams multiplexed on one client
	// session; opens beyond it are refused with a
	// recoverable StreamOpenOK, never a disconnect.
	StreamLimit int
	// BoundedLoadFactor bounds the rendezvous hash for pinned streams: a
	// candidate carrying more than factor × the fleet's mean in-flight
	// batches (+1) is skipped in favour of the next backend in score
	// order, so one hot backend sheds new pins. 0 disables the bound
	// (pure rendezvous).
	BoundedLoadFactor float64
}

// DefaultProxy returns the proxy tier's default configuration: one local
// backend, half-second health probes, and ejection after three straight
// failures.
func DefaultProxy() Proxy {
	return Proxy{
		Listener:             defaultListener("127.0.0.1:9660", "127.0.0.1:9661"),
		Backends:             []string{"127.0.0.1:9650"},
		DialTimeout:          5 * time.Second,
		ExchangeTimeout:      15 * time.Second,
		HealthInterval:       500 * time.Millisecond,
		ProbeScheme:          "baseline",
		EjectThreshold:       3,
		RetryHint:            25 * time.Millisecond,
		StateTransferTimeout: 2 * time.Second,
		ShadowInterval:       16,
		StreamLimit:          4096,
		BoundedLoadFactor:    1.25,
	}
}

// Validate reports the first configuration error, or nil.
func (p Proxy) Validate() error {
	if err := p.Listener.Validate(); err != nil {
		return err
	}
	if len(p.Backends) == 0 {
		return fmt.Errorf("config: proxy has no backends")
	}
	seen := make(map[string]bool, len(p.Backends))
	for _, b := range p.Backends {
		if b == "" {
			return fmt.Errorf("config: empty backend address")
		}
		if seen[b] {
			return fmt.Errorf("config: duplicate backend %q", b)
		}
		seen[b] = true
	}
	if p.DialTimeout <= 0 || p.ExchangeTimeout <= 0 {
		return fmt.Errorf("config: dial/exchange timeouts must be positive (got %v, %v)", p.DialTimeout, p.ExchangeTimeout)
	}
	if p.HealthInterval <= 0 {
		return fmt.Errorf("config: health interval %v is not positive", p.HealthInterval)
	}
	if !scheme.Known(p.ProbeScheme) {
		return fmt.Errorf("config: unknown probe scheme %q", p.ProbeScheme)
	}
	if p.EjectThreshold <= 0 {
		return fmt.Errorf("config: eject threshold %d is not positive", p.EjectThreshold)
	}
	if p.RetryHint <= 0 {
		return fmt.Errorf("config: retry hint %v is not positive", p.RetryHint)
	}
	if p.StateTransferTimeout <= 0 {
		return fmt.Errorf("config: state transfer timeout %v is not positive", p.StateTransferTimeout)
	}
	if p.ShadowInterval < 0 {
		return fmt.Errorf("config: shadow snapshot interval %d is negative", p.ShadowInterval)
	}
	if p.StreamLimit <= 0 {
		return fmt.Errorf("config: proxy stream limit %d is not positive", p.StreamLimit)
	}
	if p.BoundedLoadFactor < 0 {
		return fmt.Errorf("config: bounded-load factor %v is negative", p.BoundedLoadFactor)
	}
	return nil
}
