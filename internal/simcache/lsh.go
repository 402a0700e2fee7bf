package simcache

// LSH candidate banding over the word signature. The TxnBytes*8 signature
// bits are cut into Bands contiguous ranges; each range is reduced to a
// uint64 key indexing a per-band bucket table. Entries within Hamming
// distance d differ in at most d bands, so when d < Bands at least one band
// key matches exactly and the entry appears in a probed bucket — the
// standard multi-index pigeonhole argument for Hamming space.

// FNV-1a over 64-bit chunks: cheap, deterministic across processes, and
// good enough dispersion for bucket keys.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// hashWords returns the 64-bit content hash of a word signature.
func hashWords(words []uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, w := range words {
		h = (h ^ w) * fnvPrime64
	}
	return h
}

// bandKeys fills keys (length cfg.Bands) with the band keys of words. Bands
// spanning whole words are hash-folded; sub-word bands are the raw bit
// field, which is already a valid key since each band owns its own bucket
// table.
func (c *Cache) bandKeys(keys, words []uint64) {
	if c.bandBits >= 64 {
		per := c.bandBits / 64
		for b := range keys {
			keys[b] = hashWords(words[b*per : (b+1)*per])
		}
		return
	}
	fields := 64 / c.bandBits
	mask := uint64(1)<<c.bandBits - 1
	k := 0
	for _, w := range words {
		for f := 0; f < fields; f++ {
			keys[k] = w >> (uint(f) * uint(c.bandBits)) & mask
			k++
		}
	}
}

// bandKey returns band b's key of words, the one bandKeys computes. The
// exact-only lookup path needs band 0's key for shard selection but never
// probes the band buckets, and a band table recomputes a stored slot's key
// instead of keeping it, so neither pays for the other bands.
func (c *Cache) bandKey(words []uint64, b int) uint64 {
	if c.bandBits >= 64 {
		per := c.bandBits / 64
		return hashWords(words[b*per : (b+1)*per])
	}
	bit := uint(b * c.bandBits)
	return words[bit/64] >> (bit % 64) & (uint64(1)<<c.bandBits - 1)
}

// shardFor maps a band-0 key to a shard index. Sharding by band 0 — not the
// full content hash — keeps exact duplicates co-sharded always and
// near-duplicates co-sharded unless their diff touches band 0, which costs
// roughly Threshold/Bands of near-hit recall in exchange for independent
// shard locks.
func (c *Cache) shardFor(key0 uint64) int {
	return int(mix64(key0) % uint64(len(c.shards)))
}

// mix64 is the splitmix64 finalizer, spreading low-entropy band keys across
// shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
