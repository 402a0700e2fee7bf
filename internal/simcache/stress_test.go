package simcache

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/hpca18/bxt/internal/testutil"
)

// TestConcurrentStress pounds a deliberately tiny cache from many goroutines
// so lookups, inserts and evictions constantly interleave on the same
// shards; run under -race (as CI does) this is the concurrency
// proof for the per-shard locking.
func TestConcurrentStress(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	c := newCache(t, Config{TxnBytes: 32, Capacity: 32, Shards: 4, Threshold: 12})

	// A shared pool of hot transactions plus per-goroutine cold ones.
	hot := make([][]byte, 16)
	seed := rand.New(rand.NewSource(77))
	for i := range hot {
		hot[i] = make([]byte, 32)
		seed.Read(hot[i])
	}

	const goroutines = 8
	const opsPer = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			var p Probe
			src := make([]byte, 32)
			for op := 0; op < opsPer; op++ {
				switch rng.Intn(10) {
				case 0: // cold insert, drives eviction
					rng.Read(src)
				case 1: // near-duplicate of a hot transaction
					copy(src, hot[rng.Intn(len(hot))])
					src[rng.Intn(32)] ^= byte(1 << rng.Intn(8))
				default: // hot lookup
					copy(src, hot[rng.Intn(len(hot))])
				}
				if c.Lookup(&p, src) == Miss {
					c.Insert(&p, src, src, nil)
				}
			}
		}(g)
	}
	wg.Wait()

	checkInvariants(t, c)
	s := c.Stats()
	if s.Entries > 32 {
		t.Fatalf("cache holds %d entries, capacity 32", s.Entries)
	}
	if s.Hits == 0 {
		t.Fatal("stress run produced no hits; workload is broken")
	}
}

// TestLookupZeroAlloc is the regression gate on the serving path: once the
// probe buffers are warm, exact hits, near hits and misses must all run
// without a single heap allocation.
func TestLookupZeroAlloc(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32, Shards: 1})
	var p Probe
	rng := rand.New(rand.NewSource(5))
	ref := make([]byte, 32)
	rng.Read(ref)
	c.Insert(&p, ref, ref, []byte{1, 2})

	near := append([]byte(nil), ref...)
	near[20] ^= 0x03
	cold := make([]byte, 32)
	rng.Read(cold)

	// Warm the probe buffers once.
	c.Lookup(&p, ref)
	c.Lookup(&p, near)
	c.Lookup(&p, cold)

	check := func(name string, src []byte, want Result) {
		t.Helper()
		if got := c.Lookup(&p, src); got != want {
			t.Fatalf("%s lookup = %v, want %v", name, got, want)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			c.Lookup(&p, src)
		}); allocs != 0 {
			t.Errorf("%s lookup allocates %.1f per op, want 0", name, allocs)
		}
	}
	check("exact-hit", ref, HitExact)
	check("near-hit", near, HitNear)
	check("miss", cold, Miss)
}

// TestInsertSteadyStateAllocs verifies slot recycling: once a shard is at
// capacity, insert-with-eviction reuses the victim's slab slot, its arena
// words and links, and its data/meta and summary buffers, and the band
// buckets are intrusive lists over slots, so an insert allocates nothing —
// with or without summary memoization.
func TestInsertSteadyStateAllocs(t *testing.T) {
	for _, width := range []int{0, 32} {
		c := newCache(t, Config{TxnBytes: 32, Capacity: 8, Shards: 1, Threshold: 1, ChannelWidthBits: width})
		var p Probe
		rng := rand.New(rand.NewSource(6))
		src := make([]byte, 32)
		for i := 0; i < 32; i++ { // well past capacity: steady-state eviction
			rng.Read(src)
			c.Insert(&p, src, src, nil)
		}
		allocs := testing.AllocsPerRun(100, func() {
			rng.Read(src)
			c.Insert(&p, src, src, nil)
		})
		if allocs != 0 {
			t.Errorf("width %d: steady-state insert allocates %.2f per op, want 0", width, allocs)
		}
		checkInvariants(t, c)
	}
}
