// Package bdenc implements BD-Encoding (Seol et al., ISCA 2016 [4]), the
// cache-based bitwise-difference baseline the paper compares against in
// §VI-D.
//
// BD-Encoding holds the 64 most recently transferred 8-byte words in a
// repository replicated on both sides of the channel. Each new word is
// compared against every cached word; if the closest entry differs in fewer
// than a threshold number of bits, the word is transferred as the bitwise
// difference from that entry together with 8 bits of metadata (a hit flag
// and the 6-bit repository index). Unlike Base+XOR Transfer, the scheme
// needs per-word metadata, storage and comparators on both the memory
// controller and the DRAM, and its benefit is sensitive to the threshold —
// both drawbacks §VI-D quantifies.
//
// The hardware compares all 64 entries at once; here an exact-match index
// (256 hash buckets, each a 64-bit mask of repository positions) finds a
// repeated word without the scan, and only a word with no identical entry
// pays for the 64-entry XOR+popcount walk. The index is derived from the
// repository, so snapshots carry only the repository and Restore rebuilds
// it.
package bdenc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/hpca18/bxt/internal/core"
)

// Defaults from the paper's description of [4].
const (
	// WordBytes is the encoding granularity.
	WordBytes = 8
	// RepositoryEntries is the number of recently transferred words kept.
	RepositoryEntries = 64
	// DefaultThreshold is the maximum Hamming distance (exclusive) at
	// which two words are considered similar ("e.g., less than 12-bit
	// bitwise differences", §VI-D).
	DefaultThreshold = 12
	// metaBitsPerWord is the side-band cost: 8 bits per 8-byte word
	// (hit flag + 6-bit index, rounded to a byte lane).
	metaBitsPerWord = 8
	// indexBuckets is the size of the encoder's exact-match index: 256
	// 64-bit position masks, 2 KiB per BD.
	indexBuckets = 256
)

// BD is a BD-Encoding codec. Encoder and decoder instances evolve their
// repositories identically, so a single BD value can both encode and decode
// as long as Decode sees transactions in encoding order with an equally
// initialized repository; for independent streams use two values and Reset.
type BD struct {
	// Threshold is the similarity cutoff in bits. Words whose closest
	// repository entry is at Hamming distance < Threshold are sent as
	// differences.
	Threshold int

	// Repositories hold each 8-byte word as a uint64 so the 64-entry
	// nearest-neighbour scan (core.NearestWord) is one XOR + popcount per
	// entry — the same word-parallel comparator array the scheme's
	// hardware would use. FIFO insertion fills entries 0..count-1 before
	// wrapping, so the valid entries are always the prefix repo[:count].
	repo     [RepositoryEntries]uint64
	count    int // valid entries (grows to RepositoryEntries, then stays)
	next     int // FIFO insertion cursor
	decRepo  [RepositoryEntries]uint64
	decCount int
	decNext  int

	// where is the encoder's exact-match index, derived state that is
	// never snapshotted: bit i of where[bucket(w)] is set iff i < count
	// and bucket(repo[i]) == bucket(w), so closest finds an exact match
	// by testing a handful of candidates instead of scanning all 64
	// entries.
	where [indexBuckets]uint64
}

var _ core.Codec = (*BD)(nil)

// New returns a BD-Encoding codec with the paper's default threshold.
func New() *BD {
	return &BD{Threshold: DefaultThreshold}
}

// Name implements core.Codec.
func (b *BD) Name() string { return "BD-Encoding" }

// MetaBits implements core.Codec: 8 bits per 8-byte word, i.e. 4 bits of
// metadata per 4 bytes of data as the paper states.
func (b *BD) MetaBits(n int) int { return n / WordBytes * metaBitsPerWord }

// Reset implements core.Codec, emptying both repositories.
func (b *BD) Reset() {
	b.count, b.decCount = 0, 0
	b.next, b.decNext = 0, 0
	b.where = [indexBuckets]uint64{}
}

// bucket hashes a word to its exact-match index bucket (Fibonacci hashing:
// the top byte of a multiplicative hash mixes every input bit).
func bucket(word uint64) int { return int(word * 0x9e3779b97f4a7c15 >> 56) }

// reindex rebuilds the exact-match index from repo[:count].
func (b *BD) reindex() {
	b.where = [indexBuckets]uint64{}
	for i, word := range b.repo[:b.count] {
		b.where[bucket(word)] |= 1 << uint(i)
	}
}

func (b *BD) check(n int) error {
	if n%WordBytes != 0 {
		return fmt.Errorf("bdenc: transaction length %d is not a multiple of %d", n, WordBytes)
	}
	return nil
}

// closest returns the index of the valid repository entry with minimal
// Hamming distance to word, or -1 if the repository is empty; ties break to
// the lowest index so encoder and decoder stay deterministic. The
// lowest-index exact match is that minimum, so the index's candidates are
// tried first, in ascending position order; only a word with no exact
// match pays for the shared core.NearestWord XOR+popcount scan.
func (b *BD) closest(word uint64) (idx, dist int) {
	for m := b.where[bucket(word)]; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); b.repo[i] == word {
			return i, 0
		}
	}
	return core.NearestWord(word, b.repo[:b.count])
}

// insert FIFO-inserts word into the encoder repository, moving the
// position's bit in the exact-match index from the evicted word's bucket
// to the new one's.
func (b *BD) insert(word uint64) {
	bit := uint64(1) << uint(b.next)
	if b.next < b.count {
		b.where[bucket(b.repo[b.next])] &^= bit
	}
	b.where[bucket(word)] |= bit
	b.repo[b.next] = word
	if b.count <= b.next {
		b.count = b.next + 1
	}
	b.next = (b.next + 1) % RepositoryEntries
}

// insertDec mirrors insert for the decoder repository.
func (b *BD) insertDec(word uint64) {
	b.decRepo[b.decNext] = word
	if b.decCount <= b.decNext {
		b.decCount = b.decNext + 1
	}
	b.decNext = (b.decNext + 1) % RepositoryEntries
}

// Encode implements core.Codec. The metadata byte for each word is
// 0x80|index on a repository hit and 0x00 on a miss.
func (b *BD) Encode(dst *core.Encoded, src []byte) error {
	if err := b.check(len(src)); err != nil {
		return err
	}
	dst.Resize(len(src), b.MetaBits(len(src)))
	for w := 0; w*WordBytes < len(src); w++ {
		word := binary.LittleEndian.Uint64(src[w*WordBytes:])
		out := word
		idx, dist := b.closest(word)
		if idx >= 0 && dist < b.Threshold {
			// Hit: transfer the bitwise difference plus the index.
			out = word ^ b.repo[idx]
			dst.Meta[w] = 0x80 | byte(idx)
		} else {
			dst.Meta[w] = 0
		}
		binary.LittleEndian.PutUint64(dst.Data[w*WordBytes:], out)
		b.insert(word)
	}
	return nil
}

// Decode implements core.Codec.
func (b *BD) Decode(dst []byte, src *core.Encoded) error {
	if len(dst) != len(src.Data) {
		return fmt.Errorf("bdenc: decode length %d != encoded length %d", len(dst), len(src.Data))
	}
	if err := b.check(len(dst)); err != nil {
		return err
	}
	for w := 0; w*WordBytes < len(dst); w++ {
		enc := binary.LittleEndian.Uint64(src.Data[w*WordBytes:])
		out := enc
		meta := src.Meta[w]
		if meta&0x80 != 0 {
			idx := int(meta & 0x3f)
			if idx >= b.decCount {
				return fmt.Errorf("bdenc: metadata references empty repository entry %d", idx)
			}
			out = enc ^ b.decRepo[idx]
		}
		binary.LittleEndian.PutUint64(dst[w*WordBytes:], out)
		b.insertDec(out)
	}
	return nil
}
