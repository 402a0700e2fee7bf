package simcache

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/hpca18/bxt/internal/core"
)

// FuzzLoad hammers the snapshot reader with arbitrary bytes: it must never
// panic, and whatever it accepts must leave the cache internally consistent
// (Len within capacity, still usable for lookups).
func FuzzLoad(f *testing.F) {
	seed, err := New(Config{TxnBytes: 32, Capacity: 16, Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	var p Probe
	for i := 0; i < 4; i++ {
		src := bytes.Repeat([]byte{byte(i)}, 32)
		seed.Insert(&p, src, src, []byte{byte(i)})
	}
	var valid bytes.Buffer
	if err := seed.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("BXSC"))
	f.Add(valid.Bytes()[:headerLen])
	truncated := append([]byte(nil), valid.Bytes()...)
	f.Add(truncated[:len(truncated)-5])

	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := New(Config{TxnBytes: 32, Capacity: 16, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.Load(bytes.NewReader(raw))
		if err != nil && c.Len() != 0 {
			t.Fatalf("failed load left %d entries", c.Len())
		}
		if n < 0 || c.Len() > 16 {
			t.Fatalf("loaded %d, cache holds %d with capacity 16", n, c.Len())
		}
		checkInvariants(t, c)
		var p Probe
		probe := bytes.Repeat([]byte{0xfe}, 32)
		c.Insert(&p, probe, probe, nil)
		if got := c.Lookup(&p, probe); got != HitExact {
			t.Fatalf("cache unusable after load: %v", got)
		}
	})
}

// checkInvariants verifies a quiescent cache's internal structure: each
// shard's recency list is one doubly linked list over exactly its slab
// slots, the exact map holds exactly one slot per content hash, every entry
// sits on the shard its band-0 key selects and exactly once in each of its
// band buckets, the entries counter matches the shards, and every cached
// transaction is an exact hit for its own record.
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
		if len(sh.sigs) != n*sh.nwords || len(sh.links) != 2*n*sh.nbands {
			t.Fatalf("shard %d: arenas hold %d words and %d links for %d slots", s, len(sh.sigs), len(sh.links), n)
		}

		seen := make([]bool, n)
		prev, length := none, 0
		for i := sh.head; i != none; i = sh.slab[i].next {
			if i < 0 || int(i) >= n || seen[i] {
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

		if len(sh.exact) != n {
			t.Fatalf("shard %d: exact map holds %d hashes for %d entries", s, len(sh.exact), n)
		}
		for i := int32(0); int(i) < n; i++ {
			h := hashWords(sh.sig(i))
			if got, ok := sh.exact[h]; sh.slab[i].hash != h || !ok || got != i {
				t.Fatalf("shard %d: slot %d hash %#x is not mapped to itself", s, i, sh.slab[i].hash)
			}
			c.bandKeys(keys, sh.sig(i))
			if c.shardFor(keys[0]) != s {
				t.Fatalf("shard %d: slot %d belongs on shard %d", s, i, c.shardFor(keys[0]))
			}
		}

		for b, bucket := range sh.bands {
			on := make([]int, n)
			for k, head := range bucket {
				prev := none
				for i := head; i != none; i = sh.links[sh.link(i, b)] {
					if i < 0 || int(i) >= n {
						t.Fatalf("shard %d band %d: bucket %#x leaves the slab at %d", s, b, k, i)
					}
					if on[i]++; on[i] > 1 {
						t.Fatalf("shard %d band %d: slot %d linked more than once", s, b, i)
					}
					if got := sh.links[sh.link(i, b)+1]; got != prev {
						t.Fatalf("shard %d band %d: slot %d prev %d, want %d", s, b, i, got, prev)
					}
					c.bandKeys(keys, sh.sig(i))
					if keys[b] != k {
						t.Fatalf("shard %d band %d: slot %d with key %#x sits in bucket %#x", s, b, i, keys[b], k)
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
			src = appendWords(src[:0], sh.sig(int32(i)))
			if got := c.LookupExact(&p, src); got != HitExact ||
				!bytes.Equal(p.Data, e.data) || !bytes.Equal(p.Meta, e.meta) {
				t.Fatalf("shard %d slot %d: cached transaction looks up as %v", s, i, got)
			}
			e.ref = ref
		}
	}
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

// lruOrder lists the cached transactions shard by shard, most recent first.
func lruOrder(c *Cache) []string {
	var out []string
	for s := range c.shards {
		sh := &c.shards[s]
		for i := sh.head; i != none; i = sh.slab[i].next {
			out = append(out, string(appendWords(nil, sh.sig(i))))
		}
	}
	return out
}

// FuzzCacheOps drives random Lookup/LookupExact/Insert/Clear/Save→Load
// sequences over a small cache with clustered contents. After every step
// the structural invariants must hold, every cached record must be the
// last one inserted for its transaction, and hits must return it.
func FuzzCacheOps(f *testing.F) {
	// Random op streams long enough to fill both configurations many times
	// over, so the seeds alone exercise eviction, Clear and Save→Load.
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
			switch op % 8 {
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
				c.Insert(&p, src, rec.data, rec.meta)
				model[string(src)] = rec
			case 6:
				if a%4 == 0 {
					c.Clear()
				}
			case 7:
				order := lruOrder(c)
				var buf bytes.Buffer
				if err := c.Save(&buf); err != nil {
					t.Fatal(err)
				}
				c.Clear()
				if n, err := c.Load(&buf); err != nil || n != len(order) {
					t.Fatalf("step %d: reloaded (%d, %v), want %d entries", step, n, err, len(order))
				}
				if got := lruOrder(c); !slices.Equal(got, order) {
					t.Fatalf("step %d: reload changed the recency order", step)
				}
			}
			checkInvariants(t, c)
			for s := range c.shards {
				sh := &c.shards[s]
				for i := range sh.slab {
					rec, ok := model[string(appendWords(nil, sh.sig(int32(i))))]
					if e := &sh.slab[i]; !ok || !bytes.Equal(e.data, rec.data) || !bytes.Equal(e.meta, rec.meta) {
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
