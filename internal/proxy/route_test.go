package proxy

import (
	"sync"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/config"
)

// newRoutingFixture builds an unstarted proxy over fake backend addresses:
// the routing decisions under test never dial, they only read the
// counters the tests seed by hand.
func newRoutingFixture(t *testing.T, addrs ...string) *Proxy {
	t.Helper()
	cfg := config.DefaultProxy()
	cfg.Backends = addrs
	px, err := New(cfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	return px
}

// TestWeightedStatelessRouting pins the weighted router's core trade: a
// backend that answers a scheme 10× slower needs a 10× shorter queue to
// compete, so speed beats the fewest-lifetime-batches tie-break, and a
// deep queue on the fast backend hands the batch to the slow-but-idle one.
func TestWeightedStatelessRouting(t *testing.T) {
	px := newRoutingFixture(t, "198.51.100.1:1", "198.51.100.2:1")
	bs := px.backendList()
	fast, slow := bs[0], bs[1]
	fast.observeExchange("universal", time.Millisecond)
	slow.observeExchange("universal", 10*time.Millisecond)

	// The fast backend has served far more batches; latency still wins
	// because the 10× gap is far outside the tie band.
	fast.batches.Store(1000)
	if got := px.pickStateless("universal", nil); got != fast {
		t.Fatalf("idle fleet routed to %s, want the fast backend %s", got.addr, fast.addr)
	}

	// 20 batches queued on the fast backend: (20+1)×1ms > 10ms idle, so
	// the slow backend is now the better place for this batch.
	fast.pending.Store(20)
	if got := px.pickStateless("universal", nil); got != slow {
		t.Fatalf("queued fleet routed to %s, want the idle slow backend %s", got.addr, slow.addr)
	}
	fast.pending.Store(0)

	// A scheme nobody has served degenerates to least-pending with the
	// fewest-batches tie-break — the slow backend's universal latency
	// must not bleed into bdenc routing.
	if got := px.pickStateless("bdenc", nil); got != slow {
		t.Fatalf("unmeasured scheme routed to %s, want fewest-batches backend %s", got.addr, slow.addr)
	}

	// Exclusion wins over every weight.
	if got := px.pickStateless("universal", map[*backend]bool{fast: true}); got != slow {
		t.Fatalf("exclusion routed to %s, want %s", got.addr, slow.addr)
	}
}

// TestPickStatelessUnderLiveCounters pins that a stateless pick always
// finds the backend that is eligible while other sessions move its pending
// count and latency EWMA underneath the pick: a pick that read a counter
// twice could score the lone candidate outside its own tie band and come
// back empty, which a session answers with a converted Busy.
func TestPickStatelessUnderLiveCounters(t *testing.T) {
	px := newRoutingFixture(t, "198.51.100.1:1", "198.51.100.2:1")
	bs := px.backendList()
	live, ejected := bs[0], bs[1]
	ejected.ejected.Store(true)
	live.observeExchange("universal", time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				live.pending.Add(1)
				live.observeExchange("universal", time.Duration(1+i%7)*time.Millisecond)
				live.pending.Add(-1)
			}
		}()
	}
	for i := 0; i < 200000; i++ {
		if got := px.pickStateless("universal", nil); got != live {
			close(stop)
			wg.Wait()
			t.Fatalf("pick %d returned %v while %s was eligible", i, got, live.addr)
		}
	}
	close(stop)
	wg.Wait()
}

// TestUnmeasuredBackendInheritsFastest pins the optimistic default: a
// backend with no latency samples scores at the fleet's fastest observed
// latency, so it ties with the best and the fewest-batches tie-break
// sends it traffic to get measured — fresh fleet members attract load
// instead of starving unmeasured.
func TestUnmeasuredBackendInheritsFastest(t *testing.T) {
	px := newRoutingFixture(t, "198.51.100.1:1", "198.51.100.2:1")
	bs := px.backendList()
	measured, fresh := bs[0], bs[1]
	measured.observeExchange("universal", 2*time.Millisecond)
	measured.batches.Store(50)
	if got := px.pickStateless("universal", nil); got != fresh {
		t.Fatalf("routed to %s, want the unmeasured backend %s", got.addr, fresh.addr)
	}
}

// TestRestoreClearsLatencyHistory pins the outage-staleness rule: when an
// ejected backend is restored, its pre-outage EWMAs are discarded, so it
// rejoins routing as unmeasured (optimistic) rather than carrying
// latencies measured under the conditions that got it ejected.
func TestRestoreClearsLatencyHistory(t *testing.T) {
	b := newBackend("198.51.100.1:1")
	b.observeExchange("universal", 50*time.Millisecond)
	if !b.fail(1) {
		t.Fatal("fail(1) did not eject")
	}
	if !b.ok() {
		t.Fatal("ok() did not report a restore")
	}
	if got := b.exchangeEWMA("universal"); got != 0 {
		t.Fatalf("post-restore EWMA = %v ns, want 0 (history cleared)", got)
	}
	// A success on a healthy backend must NOT clear anything.
	b.observeExchange("universal", 3*time.Millisecond)
	b.ok()
	if got := b.exchangeEWMA("universal"); got == 0 {
		t.Fatal("healthy ok() cleared the latency history")
	}
}

// pureWinner replays the unbounded rendezvous hash over bs.
func pureWinner(bs []*backend, key uint64) *backend {
	var best *backend
	var bestScore uint64
	for _, b := range bs {
		if s := rendezvousScore(key, b.addr); best == nil || s > bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// TestBoundedLoadPinned pins the consistent-hashing-with-bounded-load
// contract: the rendezvous winner keeps every placement while its queue
// stays under BoundedLoadFactor × the fleet mean (+1); beyond that, new
// pins fall to the next candidate in score order; and when every
// candidate is over the bound the pure winner still places.
func TestBoundedLoadPinned(t *testing.T) {
	px := newRoutingFixture(t, "198.51.100.1:1", "198.51.100.2:1", "198.51.100.3:1")
	bs := px.backendList()
	const key = 42
	winner := pureWinner(bs, key)

	if got := px.pickPinned(key); got != winner {
		t.Fatalf("cold fleet pinned to %s, want rendezvous winner %s", got.addr, winner.addr)
	}

	// Heat the winner: 90 in flight against an otherwise idle fleet puts
	// it over limit = 1.25 × (90/3) + 1 = 38, so the pin sheds.
	winner.pending.Store(90)
	shed := px.pickPinned(key)
	if shed == nil || shed == winner {
		t.Fatalf("hot winner still took the pin (got %v)", shed)
	}
	// Placement stability: the fallback is deterministic for the key.
	if again := px.pickPinned(key); again != shed {
		t.Fatalf("fallback flapped: %s then %s", shed.addr, again.addr)
	}

	// Cooling off restores the pure rendezvous placement.
	winner.pending.Store(0)
	if got := px.pickPinned(key); got != winner {
		t.Fatalf("cooled fleet pinned to %s, want %s", got.addr, winner.addr)
	}

	// Every candidate over the bound: placing on the pure winner beats
	// refusing to place.
	px.cfg.BoundedLoadFactor = 0.5
	for _, b := range bs {
		b.pending.Store(100)
	}
	if got := px.pickPinned(key); got != winner {
		t.Fatalf("saturated fleet pinned to %s, want pure winner %s", got.addr, winner.addr)
	}

	// Factor 0 disables the bound entirely.
	px.cfg.BoundedLoadFactor = 0
	for _, b := range bs {
		b.pending.Store(0)
	}
	winner.pending.Store(10_000)
	if got := px.pickPinned(key); got != winner {
		t.Fatalf("unbounded pick moved to %s, want %s", got.addr, winner.addr)
	}
}

// TestSetBackendsReconciles pins the SIGHUP reload semantics: survivors
// keep their backend object (counters, health, pools), removed backends
// are marked draining and released from probing, and an empty target
// fleet is refused.
func TestSetBackendsReconciles(t *testing.T) {
	px := newRoutingFixture(t, "198.51.100.1:1", "198.51.100.2:1")
	gone, keep := px.backendList()[0], px.backendList()[1]
	keep.batches.Store(7)

	if err := px.SetBackends([]string{keep.addr, "198.51.100.3:1"}); err != nil {
		t.Fatalf("SetBackends: %v", err)
	}
	list := px.backendList()
	if len(list) != 2 {
		t.Fatalf("fleet size = %d, want 2", len(list))
	}
	for _, b := range list {
		if b.addr == gone.addr {
			t.Fatalf("removed backend %s still in the fleet", gone.addr)
		}
		if b.addr == keep.addr {
			if b != keep {
				t.Fatal("surviving backend was rebuilt; counters lost")
			}
			if b.batches.Load() != 7 {
				t.Fatalf("survivor batches = %d, want 7", b.batches.Load())
			}
		}
	}
	if !gone.draining.Load() {
		t.Error("removed backend not marked draining")
	}
	select {
	case <-gone.gone:
	default:
		t.Error("removed backend's gone channel not closed")
	}

	if err := px.SetBackends(nil); err == nil {
		t.Fatal("SetBackends(nil) succeeded, want refusal")
	}
	if err := px.AddBackend(keep.addr); err == nil {
		t.Fatal("duplicate AddBackend succeeded, want error")
	}
	if err := px.RemoveBackend("203.0.113.9:1"); err == nil {
		t.Fatal("RemoveBackend(unknown) succeeded, want error")
	}
}
