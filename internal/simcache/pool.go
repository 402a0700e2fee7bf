package simcache

import (
	"sync"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/core"
)

// Probe is the caller-owned scratch for Lookup and Insert: the signature
// working set plus the copied-out results of a hit. A session keeps one
// Probe for its lifetime; after the first few calls every buffer has grown
// to its steady-state capacity and the hit path performs no allocations.
type Probe struct {
	hash  uint64
	words []uint64
	keys  []uint64

	// Data and Meta hold the cached encoded record after an exact hit.
	Data []byte
	Meta []byte

	// Ref and RefEnc hold the matched entry's transaction and encoded
	// payload after a near hit, for core.PatchEncoder re-encoding.
	// Distance is the Hamming distance to the match in bits.
	Ref      []byte
	RefEnc   []byte
	Distance int

	// RawSum and EncSum hold the raw transaction's and encoded record's
	// wire-accounting summaries after an exact hit or an Insert, valid
	// only when HasSums is true (the cache was configured with a channel
	// width and the record fit its beat geometry).
	RawSum  bus.Summary
	EncSum  bus.Summary
	HasSums bool

	// Admit reports, after a Lookup, whether src is worth an Insert: true
	// after a miss, false after an exact hit, and after a near hit true only
	// when the shard's doorkeeper had already seen this exact variant.
	Admit bool
}

// prepare computes the signature state (words, hash, band keys) for src.
func (p *Probe) prepare(c *Cache, src []byte) {
	p.loadSignature(c, src)
	p.keys = p.keys[:c.cfg.Bands]
	c.bandKeys(p.keys, p.words)
}

// prepareExact computes only what an exact-match probe consumes: the word
// signature, the content hash, and band 0's key for shard selection. The
// remaining band keys exist to walk the near-scan buckets, which the
// exact-only path never touches; completeBands fills them in on demand.
func (p *Probe) prepareExact(c *Cache, src []byte) {
	p.loadSignature(c, src)
	p.keys = p.keys[:1]
	p.keys[0] = c.bandKey(p.words, 0)
}

// completeBands extends a prepareExact probe with the full band-key set, so
// the near scan only pays for band hashing on the lookups that reach it
// (exact hits — the overwhelming majority under hot-key traffic — return
// before any band key beyond band 0 is touched).
func (p *Probe) completeBands(c *Cache) {
	p.keys = p.keys[:c.cfg.Bands]
	c.bandKeys(p.keys, p.words)
}

// loadSignature fills the word signature and content hash, sizing the probe
// buffers for the cache's geometry.
func (p *Probe) loadSignature(c *Cache, src []byte) {
	if cap(p.words) < c.words {
		p.words = make([]uint64, c.words)
	} else {
		p.words = p.words[:c.words]
	}
	core.LoadWords(p.words, src)
	p.hash = hashWords(p.words)
	if cap(p.keys) < c.cfg.Bands {
		p.keys = make([]uint64, c.cfg.Bands)
	}
}

// probePool recycles Probes for transient callers (benchmarks); long-lived
// sessions should simply hold their own Probe.
var probePool = sync.Pool{New: func() any { return new(Probe) }}

// GetProbe returns a pooled Probe.
func GetProbe() *Probe { return probePool.Get().(*Probe) }

// PutProbe returns p to the pool. The caller must not touch p afterwards.
func PutProbe(p *Probe) { probePool.Put(p) }
