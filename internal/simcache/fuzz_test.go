package simcache

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/core"
)

// checkInvariants verifies a quiescent cache's internal structure: each
// shard's storage is either unreserved and empty or reserved at full
// capacity, its recency list is one doubly linked list over exactly its slab
// slots, every table cell is reachable from its key's home without crossing
// an empty cell, the exact table holds one cell per slot, each band table
// one cell per distinct band key, every entry sits on the shard its band-0
// key selects and exactly once in each of its band buckets, the entries
// counter matches the shards, and every cached transaction is an exact hit
// for its own record.
func checkInvariants(t testing.TB, c *Cache) {
	t.Helper()
	total := 0
	keys := make([]uint64, c.cfg.Bands)
	for s := range c.shards {
		sh := &c.shards[s]
		n := len(sh.slab)
		total += n
		if n > sh.capacity {
			t.Fatalf("shard %d: %d entries over capacity %d", s, n, sh.capacity)
		}
		cells := int(sh.mask) + 1
		if cells&(cells-1) != 0 || cells < 2*sh.capacity {
			t.Fatalf("shard %d: %d table cells for capacity %d", s, cells, sh.capacity)
		}
		if sh.slab == nil {
			if sh.sigs != nil || sh.recs != nil || sh.links != nil || sh.sums != nil ||
				sh.exact != nil || sh.bands != nil {
				t.Fatalf("shard %d: arenas or tables allocated before the slab", s)
			}
			continue
		}
		if cap(sh.slab) != sh.capacity || len(sh.sigs) != sh.capacity*sh.nwords ||
			len(sh.recs) != sh.capacity*sh.stride || len(sh.links) != 2*sh.capacity*sh.nbands {
			t.Fatalf("shard %d: slab of %d slots with %d words, %d record bytes and %d links, want capacity %d",
				s, cap(sh.slab), len(sh.sigs), len(sh.recs), len(sh.links), sh.capacity)
		}
		wantSums := 0
		if c.cfg.ChannelWidthBits != 0 {
			wantSums = sh.capacity
		}
		if len(sh.sums) != wantSums {
			t.Fatalf("shard %d: %d summary slots, want %d", s, len(sh.sums), wantSums)
		}
		if len(sh.exact) != cells || len(sh.bands) != sh.nbands*cells {
			t.Fatalf("shard %d: tables of %d and %d cells, want %d and %d", s, len(sh.exact), len(sh.bands), cells, sh.nbands*cells)
		}

		seen := make([]bool, n)
		prev, length := none, 0
		for i := sh.head; i != none; i = sh.slab[i].next {
			if int(i) >= n || seen[i] {
				t.Fatalf("shard %d: recency list leaves the slab or revisits slot %d", s, i)
			}
			if sh.slab[i].prev != prev {
				t.Fatalf("shard %d: slot %d prev %d, want %d", s, i, sh.slab[i].prev, prev)
			}
			seen[i] = true
			prev = i
			length++
		}
		if sh.tail != prev || length != n {
			t.Fatalf("shard %d: recency list length %d ending at %d, want %d ending at tail %d", s, length, prev, n, sh.tail)
		}
		set := 0
		for _, w := range sh.door {
			set += bits.OnesCount64(w)
		}
		if sh.sightings > sh.capacity || set > sh.sightings {
			t.Fatalf("shard %d: doorkeeper has %d bits set for %d sightings, capacity %d", s, set, sh.sightings, sh.capacity)
		}

		checkTable(t, fmt.Sprintf("shard %d exact table", s), sh.exact, n, func(i slot) uint64 { return sh.slab[i].hash })
		if filed := occupied(sh.exact); filed != n {
			t.Fatalf("shard %d: exact table holds %d cells for %d entries", s, filed, n)
		}
		for i := slot(0); int(i) < n; i++ {
			if e := &sh.slab[i]; int(e.dataLen)+int(e.metaLen) > sh.stride {
				t.Fatalf("shard %d: slot %d record of %d+%d bytes overruns stride %d", s, i, e.dataLen, e.metaLen, sh.stride)
			}
			h := hashWords(sh.sig(i))
			if sh.slab[i].hash != h || sh.exactSlot(h) != i {
				t.Fatalf("shard %d: slot %d hash %#x is not filed to itself", s, i, sh.slab[i].hash)
			}
			c.bandKeys(keys, sh.sig(i))
			if c.shardFor(keys[0]) != s {
				t.Fatalf("shard %d: slot %d belongs on shard %d", s, i, c.shardFor(keys[0]))
			}
		}

		for b := 0; b < sh.nbands; b++ {
			table := sh.band(b)
			keyOf := func(i slot) uint64 { return c.bandKey(sh.sig(i), b) }
			checkTable(t, fmt.Sprintf("shard %d band %d table", s, b), table, n, keyOf)
			distinct := map[uint64]bool{}
			for i := slot(0); int(i) < n; i++ {
				distinct[keyOf(i)] = true
			}
			if filed := occupied(table); filed != len(distinct) {
				t.Fatalf("shard %d band %d: table holds %d cells for %d distinct keys", s, b, filed, len(distinct))
			}
			on := make([]int, n)
			for _, v := range table {
				if v == 0 {
					continue
				}
				k, prev := keyOf(v-1), none
				for i := v - 1; i != none; i = sh.links[sh.link(i, b)] {
					if int(i) >= n {
						t.Fatalf("shard %d band %d: bucket %#x leaves the slab at %d", s, b, k, i)
					}
					if on[i]++; on[i] > 1 {
						t.Fatalf("shard %d band %d: slot %d linked more than once", s, b, i)
					}
					if got := sh.links[sh.link(i, b)+1]; got != prev {
						t.Fatalf("shard %d band %d: slot %d prev %d, want %d", s, b, i, got, prev)
					}
					if got := keyOf(i); got != k {
						t.Fatalf("shard %d band %d: slot %d with key %#x sits in bucket %#x", s, b, i, got, k)
					}
					prev = i
				}
			}
			for i, cnt := range on {
				if cnt != 1 {
					t.Fatalf("shard %d band %d: slot %d appears in %d buckets", s, b, i, cnt)
				}
			}
		}
	}
	if got := c.Len(); got != total {
		t.Fatalf("entries counter %d, shards hold %d", got, total)
	}

	// The exact-hit probes go through the public path, which marks entries
	// and counts hits; restore both so the check leaves no trace.
	hits := c.hits.Load()
	defer c.hits.Store(hits)
	var p Probe
	var src []byte
	for s := range c.shards {
		sh := &c.shards[s]
		for i := range sh.slab {
			e := &sh.slab[i]
			ref := e.ref
			src = appendWords(src[:0], sh.sig(slot(i)))
			data, meta := sh.record(slot(i))
			if got := c.LookupExact(&p, src); got != HitExact ||
				!bytes.Equal(p.Data, data) || !bytes.Equal(p.Meta, meta) {
				t.Fatalf("shard %d slot %d: cached transaction looks up as %v", s, i, got)
			}
			e.ref = ref
		}
	}
}

// checkTable verifies one open-addressed table of a shard with n slots:
// every occupied cell holds a slot below n, no two cells hold the same slot
// or the same key, and each is reachable from its key's home without
// crossing an empty cell.
func checkTable(t testing.TB, name string, table []slot, n int, keyOf func(slot) uint64) {
	t.Helper()
	mask := uint64(len(table) - 1)
	slots, keys := map[slot]bool{}, map[uint64]bool{}
	for pos, v := range table {
		if v == 0 {
			continue
		}
		i := v - 1
		if int(i) >= n || slots[i] {
			t.Fatalf("%s: cell %d holds slot %d, out of the slab or filed twice", name, pos, i)
		}
		k := keyOf(i)
		if keys[k] {
			t.Fatalf("%s: key %#x filed in more than one cell", name, k)
		}
		slots[i], keys[k] = true, true
		for j := home(k, mask); j != pos; j = (j + 1) & int(mask) {
			if table[j] == 0 {
				t.Fatalf("%s: cell %d (slot %d) is cut off from its home %d by empty cell %d", name, pos, i, home(k, mask), j)
			}
		}
	}
}

// occupied counts a table's non-empty cells.
func occupied(table []slot) int {
	n := 0
	for _, v := range table {
		if v != 0 {
			n++
		}
	}
	return n
}

// fuzzConfigs are the small caches FuzzCacheOps runs against: sub-word
// bands with summary memoization, and hash-folded wide bands.
var fuzzConfigs = []Config{
	{TxnBytes: 32, Capacity: 12, Shards: 2, ChannelWidthBits: 32},
	{TxnBytes: 64, Capacity: 9, Shards: 3, Bands: 4, Threshold: 3},
}

// fuzzTxn derives a transaction from two op bytes: one of four base
// payloads (zero, a repeated element, two fixed patterns) with up to six
// bit flips, so the contents cluster the way hot-set traffic does.
func fuzzTxn(txnBytes int, a, b byte) []byte {
	src := make([]byte, txnBytes)
	for i := range src {
		switch a % 4 {
		case 1:
			src[i] = []byte{0xef, 0xbe, 0xad, 0xde}[i%4]
		case 2:
			src[i] = byte(i * 37)
		case 3:
			src[i] = byte(mix64(uint64(i)))
		}
	}
	for j := 0; j < int(b%7); j++ {
		bit := mix64(uint64(a)<<16|uint64(b)<<8|uint64(j)) % uint64(txnBytes*8)
		src[bit/8] ^= 1 << (bit % 8)
	}
	return src
}

// FuzzCacheOps drives random Lookup/LookupExact/Insert/Clear
// sequences over a small cache with clustered contents. Some inserts carry
// a record exactly as long as the record stride, and some one byte longer,
// which must leave the cache as it was. After every step the structural
// invariants must hold, every cached record must be the last one cached
// for its transaction, and hits must return it.
func FuzzCacheOps(f *testing.F) {
	// Random op streams long enough to fill both configurations many times
	// over, so the seeds alone exercise eviction and Clear.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		ops := make([]byte, 1+3*200)
		rng.Read(ops)
		f.Add(ops)
	}

	type record struct{ data, meta []byte }
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		cfg := fuzzConfigs[int(ops[0])%len(fuzzConfigs)]
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var p Probe
		model := map[string]record{}
		for step := 1; step+2 < len(ops); step += 3 {
			op, a, b := ops[step], ops[step+1], ops[step+2]
			src := fuzzTxn(cfg.TxnBytes, a, b)
			switch op % 7 {
			case 0, 1:
				res := c.Lookup(&p, src)
				if p.Admit != (res == Miss) && res != HitNear {
					t.Fatalf("step %d: %v reported Admit %v", step, res, p.Admit)
				}
				switch res {
				case HitExact:
					if rec := model[string(src)]; !bytes.Equal(p.Data, rec.data) || !bytes.Equal(p.Meta, rec.meta) {
						t.Fatalf("step %d: exact hit returned a stale record", step)
					}
				case HitNear:
					ref := model[string(p.Ref)]
					if p.Distance >= c.cfg.Threshold || !bytes.Equal(p.RefEnc, ref.data) ||
						hamming(src, p.Ref) != p.Distance {
						t.Fatalf("step %d: near hit at distance %d returned a bad reference", step, p.Distance)
					}
				}
			case 2:
				if c.LookupExact(&p, src) == HitNear {
					t.Fatalf("step %d: LookupExact returned a near hit", step)
				}
			case 3, 4, 5:
				rec := record{data: append([]byte{a, b}, src[:4]...)}
				if b&1 != 0 {
					rec.meta = []byte{a}
				}
				// Now and then pad the record to exactly the stride, or
				// one byte past it, which the cache must not take.
				if pad := int(a % 16); pad >= 14 {
					rec.data = append(rec.data, make([]byte, c.stride-len(rec.data)-len(rec.meta)+pad-14)...)
				}
				c.Insert(&p, src, rec.data, rec.meta)
				if len(rec.data)+len(rec.meta) <= c.stride {
					model[string(src)] = rec
				}
			case 6:
				if a%4 == 0 {
					c.Clear()
				}
			}
			checkInvariants(t, c)
			for s := range c.shards {
				sh := &c.shards[s]
				for i := range sh.slab {
					rec, ok := model[string(appendWords(nil, sh.sig(slot(i))))]
					if data, meta := sh.record(slot(i)); !ok || !bytes.Equal(data, rec.data) || !bytes.Equal(meta, rec.meta) {
						t.Fatalf("step %d: shard %d slot %d holds a record never inserted for its transaction", step, s, i)
					}
				}
			}
		}
	})
}

// hamming is the bit distance between two equal-length byte strings.
func hamming(a, b []byte) int {
	wa, wb := make([]uint64, len(a)/8), make([]uint64, len(b)/8)
	core.LoadWords(wa, a)
	core.LoadWords(wb, b)
	return core.HammingWords(wa, wb)
}
