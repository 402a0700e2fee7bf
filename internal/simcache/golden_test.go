package simcache

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/workload"
)

// rebuild empties c and re-inserts what it held, each shard's entries oldest
// first, shard by shard: every table is rebuilt through Insert in recency
// order. Re-inserting resets each entry's reference bit and re-files it in
// fresh tables, so it is not an identity; TestGoldenHotSetTrace's pinned
// values include one rebuild mid-trace.
func rebuild(c *Cache) {
	type entry struct{ src, data, meta []byte }
	var held []entry
	for s := range c.shards {
		sh := &c.shards[s]
		for i := sh.tail; i != none; i = sh.slab[i].prev {
			data, meta := sh.record(i)
			held = append(held, entry{appendWords(nil, sh.sig(i)), bytes.Clone(data), bytes.Clone(meta)})
		}
	}
	c.Clear()
	var p Probe
	for _, e := range held {
		c.Insert(&p, e.src, e.data, e.meta)
	}
}

// TestGoldenHotSetTrace replays a fixed hot-set trace through two small
// caches, serving each transaction the way the gateway does (Lookup, then
// Insert when the probe admits it), and pins the final Stats plus a digest
// of every op's outcome, near-hit distance and admission verdict. The
// pinned values were recorded from the map-backed shard tables this
// package used before its open-addressed ones, so any drift in lookup
// order, eviction or admission shows up here op for op.
func TestGoldenHotSetTrace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		digest uint64
		want   Stats
	}{
		{
			name:   "sub-word-bands",
			cfg:    Config{TxnBytes: 32, Capacity: 1024, Shards: 4},
			digest: 0x9750cb2855508ea9,
			want:   Stats{Hits: 8818, NearHits: 42155, Misses: 9027, Evictions: 10977, NearDistSum: 256689, Entries: 1024},
		},
		{
			name:   "wide-bands",
			cfg:    Config{TxnBytes: 64, Capacity: 512, Shards: 2, Bands: 4, Threshold: 3},
			digest: 0x44a4b0765d97f597,
			want:   Stats{Hits: 8074, NearHits: 11187, Misses: 40739, Evictions: 41389, NearDistSum: 21159, Entries: 512},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			hot := &workload.HotSet{Base: &workload.KindCycle{}, Keys: 2048, S: 1.2, RepeatProb: 0.9, FlipBits: 6}
			src := make([]byte, tc.cfg.TxnBytes)
			var p Probe
			digest := uint64(fnvOffset64)
			for op := 0; op < 60000; op++ {
				if op == 30000 {
					rebuild(c)
				}
				hot.Fill(src, rng)
				res := c.Lookup(&p, src)
				v := uint64(res)
				if res == HitNear {
					v |= uint64(p.Distance) << 8
				}
				if p.Admit {
					v |= 1 << 16
					c.Insert(&p, src, src[:8], nil)
				}
				digest = (digest ^ v) * fnvPrime64
			}
			checkInvariants(t, c)
			if got := c.Stats(); got != tc.want || digest != tc.digest {
				t.Fatalf("stats %+v digest %#x, want %+v digest %#x", got, digest, tc.want, tc.digest)
			}
		})
	}
}
