package simcache

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// TestReservedBytesPerEntry gates the shard layout's footprint: once every
// shard of a default cache of 32-byte transactions has reserved its storage,
// the slab, arenas, tables and doorkeeper together must cost at most 232
// bytes per entry of capacity. The sum is over reserved capacities, so it
// does not drift with the heap or the runtime.
func TestReservedBytesPerEntry(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32})
	var p Probe
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 32)
	for !allReserved(c) {
		rng.Read(src)
		c.Insert(&p, src, src, nil)
	}
	const cell = int(unsafe.Sizeof(slot(0)))
	total := 0
	for s := range c.shards {
		sh := &c.shards[s]
		total += cap(sh.slab)*int(unsafe.Sizeof(entry{})) +
			cap(sh.sigs)*8 + cap(sh.recs) + cap(sh.links)*cell +
			cap(sh.sums)*int(unsafe.Sizeof(entrySums{})) +
			(cap(sh.exact)+cap(sh.bands))*cell +
			(cap(sh.door)+cap(sh.keys))*8
	}
	perEntry := float64(total) / float64(c.Config().Capacity)
	t.Logf("%d bytes reserved for %d entries: %.1f B/entry", total, c.Config().Capacity, perEntry)
	if perEntry > 232 {
		t.Fatalf("a full shard reserves %.1f B per entry, want <= 232", perEntry)
	}
}

// allReserved reports whether every shard of c has reserved its storage.
func allReserved(c *Cache) bool {
	for s := range c.shards {
		if c.shards[s].slab == nil {
			return false
		}
	}
	return true
}

// TestShardAtSlotLimit fills one shard to the most entries a 16-bit slot
// addresses, churns it through evictions with clustered hot-set traffic,
// and checks every structural invariant, so the highest slot and the none
// sentinel never meet.
func TestShardAtSlotLimit(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32, Shards: 1, Capacity: maxShardEntries})
	if got := c.Config().Shards; got != 1 {
		t.Fatalf("capacity %d built %d shards, want 1", maxShardEntries, got)
	}
	var p Probe
	rng := rand.New(rand.NewSource(2))
	hot := newHotSet()
	src := make([]byte, 32)
	for c.Len() < maxShardEntries {
		rng.Read(src)
		c.Insert(&p, src, src, nil)
	}
	for i := 0; i < maxShardEntries/2; i++ {
		hot.Fill(src, rng)
		if c.Lookup(&p, src); p.Admit {
			c.Insert(&p, src, src[:8], src[8:12])
		}
	}
	if s := c.Stats(); s.Entries != maxShardEntries || s.Evictions == 0 {
		t.Fatalf("churned shard holds %d entries after %d evictions, want %d after some", s.Entries, s.Evictions, maxShardEntries)
	}
	checkInvariants(t, c)

	if got := newCache(t, Config{TxnBytes: 32, Shards: 1, Capacity: maxShardEntries + 1}).Config().Shards; got != 2 {
		t.Fatalf("capacity %d built %d shards, want 2", maxShardEntries+1, got)
	}
}

// TestCapacityRaisesShards asks one shard for more entries than 16-bit slots
// address: the cache must raise its shard count, report it, and hold the
// whole capacity. The narrow geometry keeps the 200,000 entries small.
func TestCapacityRaisesShards(t *testing.T) {
	const capacity = 200_000
	c := newCache(t, Config{TxnBytes: 8, Bands: 4, Threshold: 3, Shards: 1, Capacity: capacity})
	if got := c.Config(); got.Shards < 4 || got.Capacity != capacity {
		t.Fatalf("config %+v, want at least 4 shards for %d entries", got, capacity)
	}
	for s := range c.shards {
		if sh := &c.shards[s]; sh.capacity > maxShardEntries {
			t.Fatalf("shard %d has capacity %d, over the %d a slot addresses", s, sh.capacity, maxShardEntries)
		}
	}
	var p Probe
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 8)
	for c.Len() < capacity {
		rng.Read(src)
		c.Insert(&p, src, src, nil)
	}
	if got := c.Len(); got != capacity {
		t.Fatalf("cache holds %d entries, want %d", got, capacity)
	}
	if got := c.LookupExact(&p, src); got != HitExact {
		t.Fatalf("last insert looks up as %v", got)
	}
}

// TestRecordStride checks the record arena's bound: a record of
// TxnBytes + TxnBytes/8 bytes, data and metadata together, is cached and
// served back whole, while one a byte longer is not cached and
// leaves any record already cached for its transaction in place.
func TestRecordStride(t *testing.T) {
	const txnBytes, stride = 32, 36
	c := newCache(t, Config{TxnBytes: txnBytes})
	var p Probe
	rng := rand.New(rand.NewSource(4))
	fits, over, kept := make([]byte, txnBytes), make([]byte, txnBytes), make([]byte, txnBytes)
	rng.Read(fits)
	rng.Read(over)
	rng.Read(kept)
	rec := make([]byte, stride+1)
	rng.Read(rec)

	c.Insert(&p, over, rec[:txnBytes], rec[txnBytes:])
	c.Insert(&p, over, rec, nil)
	if got := c.Lookup(&p, over); got == HitExact || c.Len() != 0 {
		t.Fatalf("record of %d bytes: lookup %v with %d entries, want it uncached", stride+1, got, c.Len())
	}
	c.Insert(&p, kept, rec[:txnBytes], nil)
	c.Insert(&p, kept, rec[1:], rec[:1])
	if got := c.Lookup(&p, kept); got != HitExact || !bytes.Equal(p.Data, rec[:txnBytes]) || len(p.Meta) != 0 {
		t.Fatalf("an over-stride refresh replaced the cached record: %v, data %x meta %x", got, p.Data, p.Meta)
	}
	data, meta := rec[:txnBytes], rec[txnBytes:stride]
	c.Insert(&p, fits, data, meta)
	if got := c.Lookup(&p, fits); got != HitExact || !bytes.Equal(p.Data, data) || !bytes.Equal(p.Meta, meta) {
		t.Fatalf("stride-sized record: %v, data %x meta %x", got, p.Data, p.Meta)
	}
	checkInvariants(t, c)
}
