package simcache

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/hpca18/bxt/internal/workload"
)

// newHotSet returns the serving benchmark's hot-set traffic: 4096 Zipf(1.3)
// hot keys over zero, repeated-element and random payloads, re-served with
// probability 0.9, each repeat perturbed by 0–6 bit flips. The zero
// payload's variants share most band keys and pile into the same buckets.
func newHotSet() *workload.HotSet {
	return &workload.HotSet{Base: &workload.KindCycle{}, Keys: 4096, S: 1.3, RepeatProb: 0.9, FlipBits: 6}
}

// BenchmarkInsertEvictClustered times the gateway's cache traffic on a full
// default-config cache: every op draws a hot-set transaction, looks it up,
// and inserts it when the probe admits it — every miss, and a near-hit
// variant from its second sighting on — so the inserts evict from the
// clustered buckets of the zero payload's variants. It reports the cache's
// heap footprint per entry as B/entry.
func BenchmarkInsertEvictClustered(b *testing.B) {
	const txnBytes = 32
	rng := rand.New(rand.NewSource(1))
	hot := newHotSet()
	src := make([]byte, txnBytes)
	p := new(Probe)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := New(Config{TxnBytes: txnBytes})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() {
		hot.Fill(src, rng)
		if c.Lookup(p, src); p.Admit {
			c.Insert(p, src, src, nil)
		}
	}
	// Hot-set traffic fills the clustered shards; random transactions top
	// up the rest until every shard is at capacity.
	for i := 0; i < c.Config().Capacity; i++ {
		serve()
	}
	for c.Len() < c.Config().Capacity {
		rng.Read(src)
		c.Insert(p, src, src, nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(c.Len())

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(perEntry, "B/entry") // after ResetTimer, which drops custom metrics
}
