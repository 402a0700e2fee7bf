package obs

import (
	"sync"
	"time"

	"github.com/hpca18/bxt/internal/bus"
)

// EnergyMeter keys live wire-activity counters by an exposition label
// value: the scheme name on the gateway, the backend address on the proxy.
// Each counter accumulates only integer bus.Stats — ones, toggles, beats,
// bits — and energy is computed from the integers at exposition time.
// That ordering is what makes the live counters exactly reproducible: an
// offline replay that reaches the same integers evaluates the same power
// model over the same inputs and produces bit-identical joules, with no
// float summation-order drift.
type EnergyMeter struct {
	mu     sync.Mutex
	keys   map[string]*EnergyCounter
	window time.Duration
	slots  int
}

// DefaultEnergyWindow is the rolling-window span used for the recent-power
// and recent-savings gauges.
const DefaultEnergyWindow = time.Minute

// NewEnergyMeter builds a meter whose rolling window spans window across
// slots buckets (zero values select DefaultEnergyWindow over 15 buckets).
func NewEnergyMeter(window time.Duration, slots int) *EnergyMeter {
	if window <= 0 {
		window = DefaultEnergyWindow
	}
	if slots <= 0 {
		slots = 15
	}
	return &EnergyMeter{keys: make(map[string]*EnergyCounter), window: window, slots: slots}
}

// Counter returns (creating on first use) the counter for one key. The
// returned counter is stable: hot paths resolve it once per session and
// observe into it directly.
func (m *EnergyMeter) Counter(key string) *EnergyCounter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.keys[key]
	if !ok {
		c = &EnergyCounter{
			slotNs:  int64(m.window) / int64(m.slots),
			buckets: make([]energyBucket, m.slots),
		}
		m.keys[key] = c
	}
	return c
}

// Each visits every counter in key order, so expositions are
// deterministic.
func (m *EnergyMeter) Each(fn func(key string, c *EnergyCounter)) {
	m.mu.Lock()
	keys := make([]string, 0, len(m.keys))
	for k := range m.keys {
		keys = append(keys, k)
	}
	counters := make(map[string]*EnergyCounter, len(keys))
	for _, k := range keys {
		counters[k] = m.keys[k]
	}
	m.mu.Unlock()
	sortStrings(keys)
	for _, k := range keys {
		fn(k, counters[k])
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// energyBucket is one rolling-window slot: the activity observed during
// one slot interval.
type energyBucket struct {
	slot      int64
	base, enc bus.Stats
}

// EnergyCounter accumulates one key's baseline and encoded wire activity:
// cumulative totals plus a ring of rolling-window buckets. Observe is one
// short mutex hold over integer additions — no allocation, no floats.
type EnergyCounter struct {
	mu        sync.Mutex
	base, enc bus.Stats
	batches   uint64
	slotNs    int64
	buckets   []energyBucket
}

// Observe folds one batch's per-leg activity deltas into the counter and
// counts the batch.
func (c *EnergyCounter) Observe(base, enc bus.Stats) {
	c.observeAt(time.Now().UnixNano(), base, enc)
}

func (c *EnergyCounter) observeAt(now int64, base, enc bus.Stats) {
	slot := now / c.slotNs
	c.mu.Lock()
	c.base.Add(base)
	c.enc.Add(enc)
	c.batches++
	b := &c.buckets[slot%int64(len(c.buckets))]
	if b.slot != slot {
		*b = energyBucket{slot: slot}
	}
	b.base.Add(base)
	b.enc.Add(enc)
	c.mu.Unlock()
}

// EnergySnapshot is a consistent copy of one counter: lifetime totals plus
// the activity inside the rolling window.
type EnergySnapshot struct {
	Base, Enc       bus.Stats
	WinBase, WinEnc bus.Stats
	// Batches is the number of batches observed.
	Batches uint64
	// Window is the rolling window's span.
	Window time.Duration
}

// Snapshot returns a consistent copy of c.
func (c *EnergyCounter) Snapshot() EnergySnapshot {
	return c.snapshotAt(time.Now().UnixNano())
}

func (c *EnergyCounter) snapshotAt(now int64) EnergySnapshot {
	slot := now / c.slotNs
	c.mu.Lock()
	defer c.mu.Unlock()
	s := EnergySnapshot{
		Base:    c.base,
		Enc:     c.enc,
		Batches: c.batches,
		Window:  time.Duration(c.slotNs * int64(len(c.buckets))),
	}
	for i := range c.buckets {
		b := &c.buckets[i]
		if slot-b.slot < int64(len(c.buckets)) {
			s.WinBase.Add(b.base)
			s.WinEnc.Add(b.enc)
		}
	}
	return s
}

// EnergyComponent is one named term of an energy decomposition, in joules.
type EnergyComponent struct {
	Name   string
	Joules float64
}

// EnergyEstimator evaluates integer wire statistics into named energy
// components. internal/power provides the canonical implementation
// (Model.Estimator); the indirection keeps obs free of the power/config
// dependency cycle.
type EnergyEstimator func(s bus.Stats) []EnergyComponent

// TotalJoules sums an estimator's components.
func TotalJoules(comps []EnergyComponent) float64 {
	var t float64
	for _, c := range comps {
		t += c.Joules
	}
	return t
}
