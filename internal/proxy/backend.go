package proxy

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/obs"
)

// errRefused marks a backend that declined the session's parameters: an
// Error frame answering the Hello, or a StreamRefused verdict. The
// connection is not at fault and every backend would refuse the same
// parameters, so callers relay the refusal to the client instead of
// failing over.
//
// An Error frame answering any later request is not a refusal: the backend
// ended the connection (idle timeout, drain, fault budget), and the
// exchange fails with an error wrapping client.ErrServer. The backend is
// alive enough to speak BXTP, so the connection is dropped and redialed,
// and the backend is never counted as failed for it.
var errRefused = errors.New("proxy: refused by backend")

// errStateRejected marks a state-transfer exchange the backend answered
// cleanly but negatively (a non-OK StateAck): the backend connection
// is still in sync and usable, the state just did not move.
var errStateRejected = errors.New("proxy: backend rejected state transfer")

// backend is one bxtd upstream: routing counters and the ejection state
// machine.
type backend struct {
	addr string

	// pending counts batches in flight on this backend right now; the
	// least-pending router reads it. batches and failures are lifetime
	// totals for /metrics; probes counts health-check handshakes.
	pending  atomic.Int64
	batches  atomic.Uint64
	failures atomic.Uint64
	probes   atomic.Uint64
	// pinned gauges the sessions currently consistent-hashed here.
	pinned atomic.Int64

	// consec counts consecutive failures toward ejection; any success
	// zeroes it. ejected removes the backend from routing until a probe
	// succeeds.
	consec  atomic.Int64
	ejected atomic.Bool
	// draining removes the backend from routing without declaring it
	// unhealthy (the /drain admin hook): new sessions and pin targets go
	// elsewhere, and pinned sessions live-migrate their codec state off
	// it on their next batch — while the backend stays reachable for
	// exactly those state-snapshot pulls. Unlike ejected, a successful
	// probe does not clear it.
	draining atomic.Bool

	// energy accumulates the wire activity this backend reported in its
	// relayed BatchStats replies, feeding the proxy's per-backend
	// bxtproxy_wire_* and bxtproxy_energy_* families. Set once at New.
	energy *obs.EnergyCounter

	// gone is closed when the backend is removed from the fleet at
	// runtime; its probe loop exits on it. goneOnce makes RemoveBackend
	// idempotent against double-removal races.
	gone     chan struct{}
	goneOnce sync.Once

	// lat holds one exchange-latency EWMA per scheme served through this
	// backend; the weighted stateless router reads it so schemes route
	// toward the backends that answer them fastest.
	lat sync.Map // scheme name -> *ewma
}

func newBackend(addr string) *backend {
	return &backend{
		addr: addr,
		gone: make(chan struct{}),
	}
}

// remove marks the backend as gone from the fleet, releasing its probe
// loop. Safe to call more than once.
func (b *backend) remove() {
	b.goneOnce.Do(func() { close(b.gone) })
}

// ewma is a lock-free exponentially weighted moving average of exchange
// latency, in float64 nanoseconds packed into an atomic word. Zero means
// no samples yet.
type ewma struct{ bits atomic.Uint64 }

// ewmaAlpha weights each new exchange sample; ~0.2 settles on a shifted
// latency within a dozen batches without chasing single outliers.
const ewmaAlpha = 0.2

func (e *ewma) observe(d time.Duration) {
	for {
		old := e.bits.Load()
		prev := math.Float64frombits(old)
		next := float64(d.Nanoseconds())
		if prev != 0 {
			next = prev + ewmaAlpha*(next-prev)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (e *ewma) load() float64 { return math.Float64frombits(e.bits.Load()) }

// observeExchange folds one backend_exchange duration into the
// per-scheme latency EWMA the weighted router consults. Only the first
// sample of a scheme allocates its EWMA; LoadOrStore alone would allocate
// a candidate on every batch.
func (b *backend) observeExchange(scheme string, d time.Duration) {
	v, ok := b.lat.Load(scheme)
	if !ok {
		v, _ = b.lat.LoadOrStore(scheme, new(ewma))
	}
	v.(*ewma).observe(d)
}

// exchangeEWMA returns the backend's smoothed exchange latency for
// scheme in nanoseconds, or 0 when it has never served the scheme.
func (b *backend) exchangeEWMA(scheme string) float64 {
	if v, ok := b.lat.Load(scheme); ok {
		return v.(*ewma).load()
	}
	return 0
}

// fail records one failure and reports whether it just crossed the
// ejection threshold.
func (b *backend) fail(threshold int) (ejectedNow bool) {
	b.failures.Add(1)
	if b.consec.Add(1) >= int64(threshold) {
		return !b.ejected.Swap(true)
	}
	return false
}

// ok records one success (probe or live traffic) and reports whether it
// just restored an ejected backend. A restore discards the latency EWMAs:
// they were measured before the outage, and routing on them would keep the
// restored backend looking slow (and cold) until traffic it never receives
// re-measures it. Unmeasured backends inherit the fleet's fastest latency,
// so the fresh start pulls traffic back instead.
func (b *backend) ok() (restored bool) {
	b.consec.Store(0)
	if b.ejected.Swap(false) {
		b.lat.Range(func(k, _ any) bool { b.lat.Delete(k); return true })
		return true
	}
	return false
}
