// Package simcache is the similarity-aware transcoding cache tier: it caches
// encoded reply records keyed by transaction content so the gateway can serve
// repeated and near-repeated transactions without re-running the codec.
//
// The paper's premise is that traffic aggregated from many users is highly
// self- and cross-similar; the codec exploits that within a transaction, and
// this tier exploits it across transactions. Exact repeats are found through
// a 64-bit content hash; near-duplicates are found with the same XOR+popcount
// Hamming scan the BD-Encoding repository uses (core.HammingWords), kept off
// the critical path by LSH-style banding: the word signature is cut into
// Bands bit ranges, each hashed into a per-band bucket table, so a lookup
// probes O(bucket) candidates instead of scanning every entry. By the
// pigeonhole principle, two transactions within Hamming distance d share at
// least one identical band whenever d < Bands, so with Threshold < Bands a
// qualifying near-duplicate in the same shard is always found — up to the
// scan budget that bounds bucket walks under heavy hot-key clustering. The
// scan stops at the first candidate inside the threshold: any such
// reference patches to the identical record, so "closest" buys nothing.
//
// The cache is sharded by the band-0 key so exact duplicates always land on
// the same shard (identical content, identical bands); a near-duplicate is
// only missed when its diff happens to touch band 0, trading a small recall
// loss for per-shard locking. Lookups copy results into caller-owned Probe
// scratch so the steady-state hit path allocates nothing.
//
// Each shard keeps its entries in a slab addressed by 16-bit slot, so a
// shard holds at most 65,535 entries and a larger capacity takes more
// shards. The signature words live in one flat []uint64 arena; the
// transaction bytes are not stored again, being the words' little-endian
// image. Each slot's encoded record (data, then metadata) sits in one flat
// []byte arena at a fixed stride of TxnBytes + TxnBytes/8 bytes, and a
// record that does not fit is not cached. Every list over the slots — the
// second-chance LRU and each band bucket — is intrusive and doubly linked
// through slot indices. The shard finds slots through keyless
// open-addressed tables (table.go): one maps a content hash to its slot,
// and one per band maps a band key to its bucket's first slot. A cell holds
// only the slot; the key is checked against the slot's stored hash, or
// recomputed from its signature words. Hot-key traffic piles thousands of
// near-duplicate variants into shared buckets, so eviction must not scan
// them: it recomputes the victim's band keys from its words and unlinks it
// from each bucket in O(1), making insert-with-eviction O(Bands). A shard
// reserves its slab, arenas and tables at full capacity on its first Insert
// (about 225 bytes per entry for 32-byte transactions under the default 16
// bands) and refills an evicted victim's slot in place, so a warm shard
// allocates nothing and its storage never moves.
//
// Near hits are admitted TinyLFU-style. Under bit-flip traffic most near
// hits are one-off variants: caching each would evict a useful entry for a
// record that is never asked for again. Each shard therefore keeps a
// doorkeeper bitset over content hashes, and Lookup reports on the Probe
// (Admit) whether the transaction is worth inserting: always after a miss,
// never after an exact hit, and after a near hit only when the same variant
// was seen before. A replayed variant is thus patched twice and served as an
// exact hit from its third sighting on.
//
// Encoder (encoder.go) puts a Cache in front of a codec as a
// core.BatchEncoder decorator: it serves a batch's hits, patches its near
// hits, and sends only the misses to the codec, in one EncodeBatch call.
// bxtd serves every cached stream through it, in its block adapter: the bus
// models are charged for whole blocks with bus.TransferBatch afterwards, as
// for every stream without Universal's one-pass encode-and-count kernel,
// which a cached stream bypasses.
//
// When configured with a channel width, entries additionally memoize the
// wire-accounting summaries (bus.Summary) of the raw transaction and the
// encoded record, so a hit lets a caller that accounts record by record
// charge its buses with an O(1-beat) splice (bus.Apply) instead of
// re-walking every beat. bxtd no longer calls it: the memoization stays only
// for the end-to-end benchmark's cache layer (bench/layers.go), which sets
// ChannelWidthBits, and can go with bus.Summarize/Apply once that benchmark
// next changes. The summary pairs live in a side array that only a cache
// with a channel width reserves, so a cache without them pays nothing.
package simcache

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/core"
)

// Defaults for the tunables config leaves zero.
const (
	DefaultCapacity  = 65535
	DefaultThreshold = 12 // bits, exclusive — matches bdenc's similarity cutoff
	DefaultBands     = 16
	DefaultShards    = 8
)

// scanBudget caps the candidates a near scan examines before giving up.
// Banding keeps typical buckets tiny, but hot-key traffic concentrates
// near-duplicates of one popular payload into shared buckets; the budget
// turns that worst case from an unbounded walk into a bounded one.
const scanBudget = 128

// Config sizes a Cache. The zero value of every field other than TxnBytes
// selects the package default.
type Config struct {
	// TxnBytes is the fixed transaction size in bytes; it must be a
	// positive multiple of 8 (the signature word width).
	TxnBytes int
	// Capacity is the maximum number of cached entries across all shards.
	Capacity int
	// Threshold is the exclusive Hamming-distance cutoff in bits for
	// near-duplicate hits, as in BD-Encoding: entries at distance
	// < Threshold qualify.
	Threshold int
	// Bands is the number of LSH bands the signature is cut into. The
	// total signature bits (TxnBytes*8) must divide evenly into Bands,
	// and each band must either span whole 64-bit words or divide evenly
	// into one. Full near-duplicate recall within a shard requires
	// Threshold < Bands.
	Bands int
	// Shards is the number of independently locked shards. A shard holds
	// at most 65,535 entries, so a Capacity above Shards × 65,535 raises
	// the count to the smallest that holds it; Cache.Config reports the
	// count in use.
	Shards int
	// ChannelWidthBits, when non-zero, makes every entry memoize its
	// wire-accounting summaries for a data channel of that width: one
	// bus.Summary for the raw transaction and one for the encoded record.
	// The width must divide the transaction into whole beats. Zero
	// disables summary memoization; there is no default.
	ChannelWidthBits int
	// MetaBits is the encoded record's side-band bit count, used for the
	// encoded-record summary; it must divide evenly across the record's
	// beats. Only meaningful with ChannelWidthBits set.
	MetaBits int
}

func (cfg *Config) normalize() error {
	if cfg.TxnBytes <= 0 || cfg.TxnBytes%8 != 0 {
		return fmt.Errorf("simcache: transaction size %d is not a positive multiple of 8", cfg.TxnBytes)
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	if cfg.Bands == 0 {
		cfg.Bands = DefaultBands
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Capacity < 1 {
		return fmt.Errorf("simcache: capacity %d < 1", cfg.Capacity)
	}
	if cfg.Threshold < 1 {
		return fmt.Errorf("simcache: threshold %d < 1", cfg.Threshold)
	}
	if cfg.Shards < 1 {
		return fmt.Errorf("simcache: shards %d < 1", cfg.Shards)
	}
	cfg.Shards = max(cfg.Shards, (cfg.Capacity+maxShardEntries-1)/maxShardEntries)
	totalBits := cfg.TxnBytes * 8
	if cfg.Bands < 1 || totalBits%cfg.Bands != 0 {
		return fmt.Errorf("simcache: %d bands do not evenly divide the %d-bit signature", cfg.Bands, totalBits)
	}
	bandBits := totalBits / cfg.Bands
	if bandBits%64 != 0 && 64%bandBits != 0 {
		return fmt.Errorf("simcache: band width %d bits does not align to 64-bit words", bandBits)
	}
	if cfg.ChannelWidthBits != 0 {
		if cfg.ChannelWidthBits < 0 || cfg.ChannelWidthBits%8 != 0 {
			return fmt.Errorf("simcache: invalid channel width %d", cfg.ChannelWidthBits)
		}
		beatBytes := cfg.ChannelWidthBits / 8
		if cfg.TxnBytes%beatBytes != 0 {
			return fmt.Errorf("simcache: %d-byte transactions do not fill %d-byte beats", cfg.TxnBytes, beatBytes)
		}
		if cfg.MetaBits < 0 || cfg.MetaBits%(cfg.TxnBytes/beatBytes) != 0 {
			return fmt.Errorf("simcache: %d metadata bits do not divide across %d beats",
				cfg.MetaBits, cfg.TxnBytes/beatBytes)
		}
	} else if cfg.MetaBits != 0 {
		return fmt.Errorf("simcache: MetaBits set without ChannelWidthBits")
	}
	return nil
}

// Result classifies a Lookup outcome.
type Result int

const (
	// Miss: nothing cached within Threshold; encode from scratch.
	Miss Result = iota
	// HitExact: the exact transaction is cached; Probe.Data/Probe.Meta
	// hold the encoded record.
	HitExact
	// HitNear: a near-duplicate is cached; Probe.Ref/Probe.RefEnc hold
	// its transaction and encoded payload for patch re-encoding.
	HitNear
)

// String returns the result's name for logs and reports.
func (r Result) String() string {
	switch r {
	case Miss:
		return "miss"
	case HitExact:
		return "hit"
	case HitNear:
		return "near-hit"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// slot addresses an entry in its shard's slab. Table cells, bucket links
// and recency links all hold slots, so 16 bits each halve the shard's
// largest arrays against 32-bit indices.
type slot uint16

// none terminates the intrusive lists threaded through a shard's slab. No
// entry has it as its slot, because a shard holds at most maxShardEntries.
const none slot = 0xFFFF

// maxShardEntries is the most entries one shard holds: slots 0..0xFFFE.
const maxShardEntries = int(none)

// entry is one cached transaction's slab slot. Its signature words, record
// and band-bucket links sit in the shard's arenas at the same slot index.
type entry struct {
	hash             uint64 // content hash over the signature words
	dataLen, metaLen uint16 // the record's data and metadata lengths
	prev, next       slot   // recency list; none-terminated at both ends
	ref              bool   // hit since last relink (second-chance bit)

	// hasSums reports whether the shard's sums hold this slot's summaries;
	// false when they were not computed (the cache has no channel width,
	// or the record did not fit its geometry).
	hasSums bool
}

// entrySums is a slot's memoized summary pair: one for the transaction and
// one for its record.
type entrySums struct {
	raw, enc bus.Summary
}

// shard is one independently locked slice of the cache, laid out as the
// package comment describes. Its entries occupy slab slots 0..len(slab)-1:
// a slot is only ever vacated to be refilled at once, so no free list is
// needed. The slab's capacity, the arenas and the tables are all sized once,
// on the first Insert.
type shard struct {
	mu    sync.Mutex
	exact []slot // table: content hash -> slot
	bands []slot // per band b, table band(b): key -> first slot of its bucket
	mask  uint64 // cells per table, minus one
	slab  []entry
	sigs  []uint64    // slot i's signature words: sigs[i*nwords : (i+1)*nwords]
	recs  []byte      // slot i's record, data then metadata: recs[i*stride:]
	links []slot      // slot i's band-b bucket links: next, prev at link(i, b)
	sums  []entrySums // slot i's summaries; nil without a channel width
	keys  []uint64    // band-key scratch for unlink

	// door is the admission doorkeeper: one bit per content hash seen in a
	// near hit, 8 bits per slot; sightings counts the bits set since it was
	// last cleared.
	door      []uint64
	sightings int

	nwords, nbands int
	stride         int  // record arena bytes per slot
	head, tail     slot // most and least recently used
	capacity       int
}

// reset empties the shard and forgets every doorkeeper sighting. It keeps
// the reserved storage, so summaries refilled later reuse their buffers.
func (sh *shard) reset() {
	clear(sh.exact)
	clear(sh.bands)
	sh.slab = sh.slab[:0]
	sh.head, sh.tail = none, none
	clear(sh.door)
	sh.sightings = 0
}

// reserve allocates the shard's slab, arenas and tables at full capacity,
// and its summary array when memo is set. Called with sh.mu held, on the
// first Insert.
func (sh *shard) reserve(memo bool) {
	cells := int(sh.mask) + 1
	sh.slab = make([]entry, 0, sh.capacity)
	sh.sigs = make([]uint64, sh.capacity*sh.nwords)
	sh.recs = make([]byte, sh.capacity*sh.stride)
	sh.links = make([]slot, 2*sh.capacity*sh.nbands)
	sh.exact = make([]slot, cells)
	sh.bands = make([]slot, sh.nbands*cells)
	if memo {
		sh.sums = make([]entrySums, sh.capacity)
	}
}

// band returns band b's table.
func (sh *shard) band(b int) []slot {
	cells := int(sh.mask) + 1
	return sh.bands[b*cells : (b+1)*cells : (b+1)*cells]
}

// exactSlot returns the slot whose content hash is h, or none. Hash
// collisions between different contents evict the incumbent on Insert, so
// at most one slot matches.
func (sh *shard) exactSlot(h uint64) slot {
	for j := home(h, sh.mask); sh.exact[j] != 0; j = (j + 1) & int(sh.mask) {
		if i := sh.exact[j] - 1; sh.slab[i].hash == h {
			return i
		}
	}
	return none
}

// bandCell returns the cell of table t (band b's) that files key k, or the
// empty cell ending k's probe run when no slot has that key.
func (c *Cache) bandCell(sh *shard, t []slot, b int, k uint64) int {
	for j := home(k, sh.mask); ; j = (j + 1) & int(sh.mask) {
		if t[j] == 0 || c.bandKey(sh.sig(t[j]-1), b) == k {
			return j
		}
	}
}

// seenBefore reports whether the doorkeeper has a sighting of content hash
// h, recording one if not. The bitset holds at most capacity sightings: the
// first sighting past that clears it, so a variant must recur within about
// one cache turnover to be admitted, and with 8 bits per slot a false
// "seen" — which only admits a one-off variant, as if there were no
// doorkeeper — stays under one in eight. Called with sh.mu held.
func (sh *shard) seenBefore(h uint64) bool {
	bit := mix64(h) % uint64(64*len(sh.door))
	w, m := bit/64, uint64(1)<<(bit%64)
	if sh.door[w]&m != 0 {
		return true
	}
	if sh.sightings == sh.capacity {
		clear(sh.door)
		sh.sightings = 0
	}
	sh.sightings++
	sh.door[w] |= m
	return false
}

// sig returns slot i's signature words.
func (sh *shard) sig(i slot) []uint64 {
	off := int(i) * sh.nwords
	return sh.sigs[off : off+sh.nwords : off+sh.nwords]
}

// record returns slot i's cached record, which aliases the shard's arena.
func (sh *shard) record(i slot) (data, meta []byte) {
	e := &sh.slab[i]
	off := int(i) * sh.stride
	end := off + int(e.dataLen)
	return sh.recs[off:end:end], sh.recs[end : end+int(e.metaLen)]
}

// setRecord stores (data, meta) as slot i's record, which the caller has
// checked fits the stride.
func (sh *shard) setRecord(i slot, data, meta []byte) {
	off := int(i) * sh.stride
	e := &sh.slab[i]
	e.dataLen = uint16(copy(sh.recs[off:], data))
	e.metaLen = uint16(copy(sh.recs[off+len(data):], meta))
}

// link returns the index in sh.links of slot i's band-b next link; the
// prev link follows it.
func (sh *shard) link(i slot, b int) int {
	return 2 * (int(i)*sh.nbands + b)
}

// Cache is a similarity-aware cache of encoded transaction records. All
// methods are safe for concurrent use.
type Cache struct {
	cfg      Config
	words    int // signature words per transaction
	stride   int // largest record, data and metadata together
	bandBits int
	shards   []shard

	hits        atomic.Uint64
	misses      atomic.Uint64
	nearHits    atomic.Uint64
	evictions   atomic.Uint64
	nearDistSum atomic.Uint64 // total Hamming distance over near hits
	entries     atomic.Int64
}

// New builds a Cache for cfg, applying package defaults to zero fields.
func New(cfg Config) (*Cache, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:   cfg,
		words: cfg.TxnBytes / 8,
		// A record has room for one metadata bit per data byte. The cap
		// keeps both record lengths within their uint16 fields.
		stride:   min(cfg.TxnBytes+cfg.TxnBytes/8, 0xFFFF),
		bandBits: cfg.TxnBytes * 8 / cfg.Bands,
		shards:   make([]shard, cfg.Shards),
	}
	perShard := (cfg.Capacity + cfg.Shards - 1) / cfg.Shards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = perShard
		sh.mask = uint64(tableCells(perShard) - 1)
		sh.nwords, sh.nbands = c.words, cfg.Bands
		sh.stride = c.stride
		sh.keys = make([]uint64, cfg.Bands)
		sh.door = make([]uint64, (8*perShard+63)/64)
		sh.reset()
	}
	return c, nil
}

// Config returns the normalized configuration the cache runs with.
func (c *Cache) Config() Config { return c.cfg }

// Len returns the current number of cached entries.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Lookup probes the cache for src, filling p with the outcome. p is caller
// scratch: reusing one Probe per session keeps the hit path allocation-free
// once its buffers have warmed. Results are copied into p under the shard
// lock, so they stay valid regardless of concurrent eviction. A src whose
// length differs from the configured TxnBytes is a Miss. p.Admit reports
// whether src is worth an Insert, as the package comment describes.
func (c *Cache) Lookup(p *Probe, src []byte) Result {
	return c.lookup(p, src, true, nil)
}

// LookupExact probes for exact repeats only, skipping the band scan. It is
// the right call for callers that could not act on a near hit anyway (no
// PatchEncoder): the near scan's cost and its counter traffic would both be
// wasted.
func (c *Cache) LookupExact(p *Probe, src []byte) Result {
	return c.lookup(p, src, false, nil)
}

// lookup serves Lookup (near true) and LookupExact. A non-nil out takes an
// exact hit's data straight from the arena, instead of p.Data and p.Meta.
func (c *Cache) lookup(p *Probe, src []byte, near bool, out []byte) Result {
	p.HasSums, p.Admit = false, true
	if len(src) != c.cfg.TxnBytes {
		c.misses.Add(1)
		return Miss
	}
	p.prepareExact(c, src)
	sh := &c.shards[c.shardFor(p.keys[0])]
	sh.mu.Lock()
	if len(sh.slab) == 0 {
		// Nothing cached, and a shard that never held an entry has no
		// tables yet.
		sh.mu.Unlock()
		c.misses.Add(1)
		return Miss
	}
	if i := sh.exactSlot(p.hash); i != none && wordsEqual(sh.sig(i), p.words) {
		e := &sh.slab[i]
		data, meta := sh.record(i)
		if out != nil {
			copy(out, data)
		} else {
			p.Data = append(p.Data[:0], data...)
			p.Meta = append(p.Meta[:0], meta...)
		}
		if e.hasSums {
			p.RawSum.CopyFrom(&sh.sums[i].raw)
			p.EncSum.CopyFrom(&sh.sums[i].enc)
			p.HasSums = true
		}
		e.ref = true
		p.Admit = false
		sh.mu.Unlock()
		c.hits.Add(1)
		return HitExact
	}
	if near {
		// First qualifying candidate wins: a patch against any reference
		// within Threshold reproduces the codec's encoding of src exactly,
		// so hunting for the closest one would buy nothing but scan time.
		// Hot-key traffic makes that ruinous — every near-duplicate insert
		// shares most band keys with its popular base, so the base's
		// buckets grow with every variant and a best-of scan walks them
		// all. The scan budget bounds the residual worst case (no nearby
		// candidate, clustered buckets): past it the lookup declares a
		// miss, costing recall only under pathological bucket skew.
		p.completeBands(c)
		budget := scanBudget
	scan:
		for b, k := range p.keys {
			t := sh.band(b)
			for i := t[c.bandCell(sh, t, b, k)] - 1; i != none; i = sh.links[sh.link(i, b)] {
				sig := sh.sig(i)
				if d := core.HammingWords(p.words, sig); d < c.cfg.Threshold {
					data, _ := sh.record(i)
					p.Ref = appendWords(p.Ref[:0], sig)
					p.RefEnc = append(p.RefEnc[:0], data...)
					p.Distance = d
					sh.slab[i].ref = true
					p.Admit = sh.seenBefore(p.hash)
					sh.mu.Unlock()
					c.nearHits.Add(1)
					c.nearDistSum.Add(uint64(d))
					return HitNear
				}
				if budget--; budget == 0 {
					break scan
				}
			}
		}
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return Miss
}

// Insert caches the encoded record (data, meta) for transaction src,
// evicting the least recently used entry if the shard is full. p is the same
// scratch Lookup uses; its signature state is recomputed here, so Insert is
// valid with any Probe. src, data and meta are copied. A src of the wrong
// size, or a record longer than TxnBytes + TxnBytes/8 bytes all told, is
// not cached. When the cache memoizes summaries, Insert leaves the freshly
// computed pair in p (HasSums true), so the caller can charge its buses
// without a second walk.
func (c *Cache) Insert(p *Probe, src, data, meta []byte) {
	p.HasSums = false
	if len(src) != c.cfg.TxnBytes || len(data)+len(meta) > c.stride {
		return
	}
	// Summarize outside the shard lock; a record whose geometry does not
	// fit the configured channel is cached without summaries.
	if c.cfg.ChannelWidthBits != 0 {
		raw := core.Encoded{Data: src}
		rec := core.Encoded{Data: data, Meta: meta, MetaBits: c.cfg.MetaBits}
		if bus.Summarize(&p.RawSum, &raw, c.cfg.ChannelWidthBits) == nil &&
			bus.Summarize(&p.EncSum, &rec, c.cfg.ChannelWidthBits) == nil {
			p.HasSums = true
		}
	}
	p.prepare(c, src)
	sh := &c.shards[c.shardFor(p.keys[0])]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.slab == nil {
		sh.reserve(c.cfg.ChannelWidthBits != 0)
	}
	if i := sh.exactSlot(p.hash); i != none {
		if wordsEqual(sh.sig(i), p.words) {
			// Refresh: deterministic codecs re-encode identically, but
			// take the caller's bytes so an updated record wins.
			sh.setRecord(i, data, meta)
			sh.setSums(i, p)
			sh.slab[i].ref = true
			return
		}
		// 64-bit hash collision between different contents: drop the
		// incumbent and recycle its slot for the new entry.
		c.unlink(sh, i)
		c.evictions.Add(1)
		c.fill(sh, i, p, data, meta)
		return
	}
	var i slot
	if n := len(sh.slab); n == sh.capacity {
		i = c.evictTail(sh)
		c.evictions.Add(1)
	} else {
		sh.slab = sh.slab[:n+1]
		i = slot(n)
		c.entries.Add(1)
	}
	c.fill(sh, i, p, data, meta)
}

// setSums copies the probe's summary pair into slot i's, reusing its
// buffers when the slot is recycled, or marks the slot summary-less when
// the probe has none. A probe has summaries only from a cache that
// memoizes them, so the shard's sums are reserved.
func (sh *shard) setSums(i slot, p *Probe) {
	if sh.slab[i].hasSums = p.HasSums; p.HasSums {
		sh.sums[i].raw.CopyFrom(&p.RawSum)
		sh.sums[i].enc.CopyFrom(&p.EncSum)
	}
}

// fill populates detached slot i from the probe state and files it in the
// exact table, at the front of each of its band buckets and at the LRU
// front. Called with sh.mu held.
func (c *Cache) fill(sh *shard, i slot, p *Probe, data, meta []byte) {
	e := &sh.slab[i]
	e.hash = p.hash
	copy(sh.sig(i), p.words)
	sh.setRecord(i, data, meta)
	sh.setSums(i, p)
	e.ref = false
	tablePut(sh.exact, home(e.hash, sh.mask), i)
	for b, k := range p.keys {
		t := sh.band(b)
		j := c.bandCell(sh, t, b, k)
		next := t[j] - 1
		if next != none {
			sh.links[sh.link(next, b)+1] = i
		}
		l := sh.link(i, b)
		sh.links[l], sh.links[l+1] = next, none
		t[j] = i + 1
	}
	sh.pushFront(i)
}

// unlink removes slot i from the exact table, its band buckets and the LRU
// list, leaving it detached for recycling. The band keys are recomputed
// from the signature rather than stored, and each bucket removal is O(1)
// through the slot's own links; only a bucket's first slot is in a table.
// Called with sh.mu held.
func (c *Cache) unlink(sh *shard, i slot) {
	tableDelete(sh.exact, tableCell(sh.exact, home(sh.slab[i].hash, sh.mask), i),
		func(j slot) int { return home(sh.slab[j].hash, sh.mask) })
	c.bandKeys(sh.keys, sh.sig(i))
	for b, k := range sh.keys {
		l := sh.link(i, b)
		next, prev := sh.links[l], sh.links[l+1]
		switch t := sh.band(b); {
		case prev != none:
			sh.links[sh.link(prev, b)] = next
		case next != none:
			t[tableCell(t, home(k, sh.mask), i)] = next + 1
		default:
			tableDelete(t, tableCell(t, home(k, sh.mask), i),
				func(j slot) int { return home(c.bandKey(sh.sig(j), b), sh.mask) })
		}
		if next != none {
			sh.links[sh.link(next, b)+1] = prev
		}
	}
	sh.remove(i)
}

func (sh *shard) pushFront(i slot) {
	e := &sh.slab[i]
	e.prev, e.next = none, sh.head
	if sh.head != none {
		sh.slab[sh.head].prev = i
	} else {
		sh.tail = i
	}
	sh.head = i
}

func (sh *shard) remove(i slot) {
	e := &sh.slab[i]
	if e.prev != none {
		sh.slab[e.prev].next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != none {
		sh.slab[e.next].prev = e.prev
	} else {
		sh.tail = e.prev
	}
}

func (sh *shard) moveFront(i slot) {
	if sh.head == i {
		return
	}
	sh.remove(i)
	sh.pushFront(i)
}

// evictTail detaches and returns the eviction victim's slot. Hits do not
// relink — a strict move-to-front would dirty both neighbor entries' cache
// lines on every hit, which dominates the hit cost once the working set
// outgrows L2 — they only set the entry's second-chance bit. The debt is
// settled here: a marked tail rotates to the front (consuming its chance)
// and the walk continues; each rotation clears a bit, so the loop
// terminates. Called with sh.mu held and at least one entry linked.
func (c *Cache) evictTail(sh *shard) slot {
	for {
		i := sh.tail
		e := &sh.slab[i]
		if !e.ref {
			c.unlink(sh, i)
			return i
		}
		e.ref = false
		sh.moveFront(i)
	}
}

// appendWords appends the little-endian image of words to dst: the
// transaction bytes a signature was loaded from.
func appendWords(dst []byte, words []uint64) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits        uint64 // exact hits
	NearHits    uint64 // near-duplicate hits served by patching
	Misses      uint64 // lookups that found nothing within Threshold
	Evictions   uint64 // entries dropped by LRU pressure or hash collision
	NearDistSum uint64 // total Hamming distance across near hits
	Entries     int    // current cached entries
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		NearHits:    c.nearHits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		NearDistSum: c.nearDistSum.Load(),
		Entries:     c.Len(),
	}
}

// HitRate returns the fraction of lookups served from the cache (exact plus
// near), or 0 when no lookups have happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.NearHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.NearHits) / float64(total)
}

// AvgNearDistance returns the mean Hamming distance of near hits in bits —
// the measured similarity of the traffic — or 0 when none have happened.
func (s Stats) AvgNearDistance() float64 {
	if s.NearHits == 0 {
		return 0
	}
	return float64(s.NearDistSum) / float64(s.NearHits)
}

// Clear drops every entry, returning the cache to cold. Counters are
// retained, and so is every shard's reserved storage.
func (c *Cache) Clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.entries.Add(int64(-len(sh.slab)))
		sh.reset()
		sh.mu.Unlock()
	}
}
