// Package faults is a deterministic, seedable fault injector for the bxtd
// serving stack. It wraps a net.Conn to corrupt, truncate, delay, or drop
// byte-stream writes and to stall or corrupt reads, and wraps a core.Codec
// to force encode errors or panics, all at configurable per-operation
// rates. The same injector drives unit tests, the chaos soak test, and the
// hidden -chaos flag on bxtd/bxtload, so every fault the tolerance layer
// claims to survive can actually be produced on demand.
//
// Determinism: all probability rolls come from one seeded math/rand source
// behind a mutex, so a single-goroutine run replays exactly. Concurrent
// sessions still draw from the one stream — per-run totals are then
// reproducible in distribution rather than position, which is what a soak
// asserts against.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/core"
)

// ErrInjected is the error returned by injected codec failures and
// truncated writes, so tests can tell injected faults from real ones.
var ErrInjected = errors.New("faults: injected fault")

// Config sets the per-operation fault probabilities, all in [0, 1]. The
// zero value injects nothing.
type Config struct {
	// Seed initializes the injector's random source.
	Seed int64

	// CorruptRate flips one random bit in a read or written chunk.
	CorruptRate float64
	// DropRate silently discards a write: the caller sees success, the
	// peer never sees the bytes (the stream desynchronizes, as a lossy
	// transport would).
	DropRate float64
	// TruncateRate writes only a prefix of the chunk, fails the write,
	// and closes the connection.
	TruncateRate float64
	// DelayRate sleeps Delay before a write completes.
	DelayRate float64
	// Delay is the injected write latency (default 5ms when DelayRate is
	// set).
	Delay time.Duration
	// StallRate sleeps Stall before a read is attempted.
	StallRate float64
	// Stall is the injected read stall (default 50ms when StallRate is
	// set).
	Stall time.Duration

	// ErrRate makes a wrapped codec's Encode return ErrInjected.
	ErrRate float64
	// PanicRate makes a wrapped codec's Encode panic.
	PanicRate float64

	// SnapCorruptRate flips one random bit in a state-transfer blob run
	// through WrapSnapshot, so a restore sees a CRC-clean envelope turn
	// sour and must fail closed.
	SnapCorruptRate float64
	// SnapTruncateRate cuts a state-transfer blob short.
	SnapTruncateRate float64
	// SnapStallRate sleeps Stall before a state-transfer blob is handed
	// on, modeling a slow transfer racing the orchestrator's deadline.
	SnapStallRate float64

	// StreamDropRate silently discards an entire protocol-v4 Batch frame
	// on a connection wrapped with WrapStreamConn: one stream's batch
	// vanishes mid-wire while every other frame — sibling streams
	// included — passes untouched. Frame-granular, unlike DropRate's raw
	// byte-chunk drops, so the connection never desynchronizes.
	StreamDropRate float64
	// StreamInterleaveRate rewrites a v4 Batch frame's stream-id prefix
	// to the previous batch frame's stream id, misrouting one stream's
	// interior onto another stream's server-side codec — the
	// cross-stream poisoning a demux bug would produce. The interior
	// envelope (outside whose CRC the stream id deliberately lives)
	// stays byte-identical.
	StreamInterleaveRate float64
	// StreamTarget, when positive, restricts the stream faults to Batch
	// frames carrying that stream id — a drill that poisons exactly one
	// stream while its siblings stay byte-perfect. Zero (the default)
	// targets every stream.
	StreamTarget int64
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"corrupt", c.CorruptRate}, {"drop", c.DropRate},
		{"truncate", c.TruncateRate}, {"delay", c.DelayRate},
		{"stall", c.StallRate}, {"err", c.ErrRate}, {"panic", c.PanicRate},
		{"snap-corrupt", c.SnapCorruptRate}, {"snap-truncate", c.SnapTruncateRate},
		{"snap-stall", c.SnapStallRate},
		{"stream-drop", c.StreamDropRate}, {"stream-interleave", c.StreamInterleaveRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.Delay < 0 || c.Stall < 0 {
		return fmt.Errorf("faults: negative delay/stall (%v, %v)", c.Delay, c.Stall)
	}
	return nil
}

// withDefaults fills the sleep durations used by armed rates.
func (c Config) withDefaults() Config {
	if c.DelayRate > 0 && c.Delay == 0 {
		c.Delay = 5 * time.Millisecond
	}
	if (c.StallRate > 0 || c.SnapStallRate > 0) && c.Stall == 0 {
		c.Stall = 50 * time.Millisecond
	}
	return c
}

// ParseSpec parses the compact key=value spec the -chaos flags accept,
// e.g. "seed=7,corrupt=0.01,drop=0.005,stall=0.01,stall-ms=200,panic=0.001".
// Keys: seed, corrupt, drop, truncate, delay, delay-ms, stall, stall-ms,
// err, panic, snap-corrupt, snap-truncate, snap-stall. The stream faults
// have no key: only a connection wrapped with WrapStreamConn injects them,
// and no daemon wraps its connections so; they are drilled by tests that
// build a Config directly.
func ParseSpec(spec string) (Config, error) {
	var c Config
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: spec field %q is not key=value", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			c.Seed = n
		case "delay-ms", "stall-ms":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return Config{}, fmt.Errorf("faults: bad %s %q", key, val)
			}
			d := time.Duration(n) * time.Millisecond
			if key == "delay-ms" {
				c.Delay = d
			} else {
				c.Stall = d
			}
		default:
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Config{}, fmt.Errorf("faults: bad rate %q for %q", val, key)
			}
			switch key {
			case "corrupt":
				c.CorruptRate = rate
			case "drop":
				c.DropRate = rate
			case "truncate":
				c.TruncateRate = rate
			case "delay":
				c.DelayRate = rate
			case "stall":
				c.StallRate = rate
			case "err":
				c.ErrRate = rate
			case "panic":
				c.PanicRate = rate
			case "snap-corrupt":
				c.SnapCorruptRate = rate
			case "snap-truncate":
				c.SnapTruncateRate = rate
			case "snap-stall":
				c.SnapStallRate = rate
			default:
				return Config{}, fmt.Errorf("faults: unknown spec key %q", key)
			}
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Counts tallies every fault the injector has produced, by kind.
type Counts struct {
	Corrupted         uint64
	Dropped           uint64
	Truncated         uint64
	Delayed           uint64
	Stalled           uint64
	CodecErrs         uint64
	CodecPanics       uint64
	SnapCorrupted     uint64
	SnapTruncated     uint64
	SnapStalled       uint64
	StreamDropped     uint64
	StreamInterleaved uint64
}

// Total sums the per-kind counts.
func (c Counts) Total() uint64 {
	return c.Corrupted + c.Dropped + c.Truncated + c.Delayed + c.Stalled + c.CodecErrs + c.CodecPanics +
		c.SnapCorrupted + c.SnapTruncated + c.SnapStalled + c.StreamDropped + c.StreamInterleaved
}

// String renders the counts compactly for logs.
func (c Counts) String() string {
	return fmt.Sprintf("corrupted=%d dropped=%d truncated=%d delayed=%d stalled=%d codec_errs=%d codec_panics=%d snap_corrupted=%d snap_truncated=%d snap_stalled=%d stream_dropped=%d stream_interleaved=%d",
		c.Corrupted, c.Dropped, c.Truncated, c.Delayed, c.Stalled, c.CodecErrs, c.CodecPanics,
		c.SnapCorrupted, c.SnapTruncated, c.SnapStalled, c.StreamDropped, c.StreamInterleaved)
}

// Injector produces faults at the configured rates. One injector may wrap
// any number of connections and codecs; it is safe for concurrent use.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	corrupted     atomic.Uint64
	dropped       atomic.Uint64
	truncated     atomic.Uint64
	delayed       atomic.Uint64
	stalled       atomic.Uint64
	codecErrs     atomic.Uint64
	codecPanics   atomic.Uint64
	snapCorrupted atomic.Uint64
	snapTruncated atomic.Uint64
	snapStalled   atomic.Uint64

	streamDropped     atomic.Uint64
	streamInterleaved atomic.Uint64
}

// New returns an injector drawing from a source seeded with cfg.Seed. The
// configuration must Validate.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg.withDefaults(), rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// MustNew is New for tests and literals known to be valid.
func MustNew(cfg Config) *Injector {
	in, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return in
}

// Counts returns a snapshot of the faults injected so far.
func (in *Injector) Counts() Counts {
	return Counts{
		Corrupted:         in.corrupted.Load(),
		Dropped:           in.dropped.Load(),
		Truncated:         in.truncated.Load(),
		Delayed:           in.delayed.Load(),
		Stalled:           in.stalled.Load(),
		CodecErrs:         in.codecErrs.Load(),
		CodecPanics:       in.codecPanics.Load(),
		SnapCorrupted:     in.snapCorrupted.Load(),
		SnapTruncated:     in.snapTruncated.Load(),
		SnapStalled:       in.snapStalled.Load(),
		StreamDropped:     in.streamDropped.Load(),
		StreamInterleaved: in.streamInterleaved.Load(),
	}
}

// roll returns true with probability rate.
func (in *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v < rate
}

// intn returns a deterministic value in [0, n).
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// WrapConn returns c with the injector's transport faults applied to every
// Read and Write. Corrupting a read flips a bit in the caller's buffer —
// exactly what a flaky wire would do to the bytes delivered.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	return &conn{Conn: c, in: in}
}

// conn is the fault-injecting net.Conn wrapper.
type conn struct {
	net.Conn
	in *Injector
	// wmu serializes writes so the scratch corruption buffer is not
	// shared between concurrent writers.
	wmu     sync.Mutex
	scratch []byte
}

func (c *conn) Read(p []byte) (int, error) {
	if c.in.roll(c.in.cfg.StallRate) {
		c.in.stalled.Add(1)
		time.Sleep(c.in.cfg.Stall)
	}
	n, err := c.Conn.Read(p)
	if n > 0 && c.in.roll(c.in.cfg.CorruptRate) {
		c.in.corrupted.Add(1)
		bit := c.in.intn(n * 8)
		p[bit/8] ^= 1 << (bit % 8)
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	if c.in.roll(c.in.cfg.DelayRate) {
		c.in.delayed.Add(1)
		time.Sleep(c.in.cfg.Delay)
	}
	if len(p) > 0 && c.in.roll(c.in.cfg.DropRate) {
		// Lie about success: the peer never sees these bytes, so the
		// frame stream desynchronizes and the peer's reader must recover.
		c.in.dropped.Add(1)
		return len(p), nil
	}
	if len(p) > 1 && c.in.roll(c.in.cfg.TruncateRate) {
		c.in.truncated.Add(1)
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return n, fmt.Errorf("%w: write truncated after %d of %d bytes", ErrInjected, n, len(p))
	}
	if len(p) > 0 && c.in.roll(c.in.cfg.CorruptRate) {
		c.in.corrupted.Add(1)
		c.wmu.Lock()
		defer c.wmu.Unlock()
		c.scratch = append(c.scratch[:0], p...)
		bit := c.in.intn(len(p) * 8)
		c.scratch[bit/8] ^= 1 << (bit % 8)
		return c.Conn.Write(c.scratch)
	}
	return c.Conn.Write(p)
}

// WrapDialer returns dial with the injector's transport faults applied to
// every connection it produces. bxtload uses it to sabotage the client leg
// and bxtproxy the proxy-to-backend leg, so chaos drills can target either
// side of a tiered deployment independently.
func (in *Injector) WrapDialer(dial func(ctx context.Context, addr string) (net.Conn, error)) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		return in.WrapConn(c), nil
	}
}

// WrapCodec returns c with injected encode failures: ErrInjected returns at
// ErrRate and panics at PanicRate. Decode and the rest of the interface
// pass through, so a wrapped codec still round-trips when no fault fires.
func (in *Injector) WrapCodec(c core.Codec) core.Codec {
	return &codec{Codec: c, in: in}
}

// codec is the fault-injecting core.Codec wrapper.
type codec struct {
	core.Codec
	in *Injector
}

// WrapSnapshot applies the injector's state-transfer faults to one blob in
// flight between backends: a stall sleeps first (racing the orchestrator's
// transfer deadline), then the blob may come back truncated or with one
// bit flipped (in a copy — the caller's buffer is never touched). The
// snap/trace framing must turn every such blob into a clean restore
// failure, never half-applied state.
func (in *Injector) WrapSnapshot(blob []byte) []byte {
	if in.roll(in.cfg.SnapStallRate) {
		in.snapStalled.Add(1)
		time.Sleep(in.cfg.Stall)
	}
	if len(blob) > 1 && in.roll(in.cfg.SnapTruncateRate) {
		in.snapTruncated.Add(1)
		return blob[:in.intn(len(blob)-1)+1]
	}
	if len(blob) > 0 && in.roll(in.cfg.SnapCorruptRate) {
		in.snapCorrupted.Add(1)
		out := append([]byte(nil), blob...)
		bit := in.intn(len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
		return out
	}
	return blob
}

func (c *codec) Encode(dst *core.Encoded, src []byte) error {
	if c.in.roll(c.in.cfg.PanicRate) {
		c.in.codecPanics.Add(1)
		panic("faults: injected codec panic")
	}
	if c.in.roll(c.in.cfg.ErrRate) {
		c.in.codecErrs.Add(1)
		return fmt.Errorf("%w: injected codec error", ErrInjected)
	}
	return c.Codec.Encode(dst, src)
}
