package server

import (
	"encoding/binary"
	"math/bits"

	"github.com/hpca18/bxt/internal/trace"
)

// gatherCounted copies each transaction's payload into dst back to back and,
// in the same walk, accumulates the gathered buffer's 1-value count and
// interior beat-toggle count for the given beat width — the raw-side half of
// every stream's block accounting (raw bytes never carry metadata), computed
// for free while each word is already in a register for the copy. The counts
// follow the bus's batch conventions (ones over every byte, toggles from the
// second beat on), so they feed straight into Bus.TransferBatchCounted.
// Callers must ensure len(dst) == len(txns)*txnSize, every Data is txnSize
// bytes, txnSize is a multiple of 8, and beatBytes is 4 or 8; gatherBlock
// falls back to a plain gather plus TransferBatch for other geometries.
func gatherCounted(dst []byte, txns []trace.Transaction, txnSize, beatBytes int) (ones, toggles int) {
	if len(txns) == 0 {
		return 0, 0
	}
	// The first word of the first record seeds the carried beat so the hot
	// loops below run branch-free; re-slicing each record to its known
	// length lets the compiler drop the per-word bounds checks.
	w := binary.LittleEndian.Uint64(txns[0].Data)
	binary.LittleEndian.PutUint64(dst, w)
	ones = bits.OnesCount64(w)
	var carry uint64
	if beatBytes == 4 {
		toggles = bits.OnesCount32(uint32(w>>32) ^ uint32(w))
		carry = w >> 32
		off := 0
		for i := range txns {
			d := txns[i].Data[:txnSize:txnSize]
			dr := dst[off : off+txnSize : off+txnSize]
			j := 0
			if i == 0 {
				j = 8
			}
			for ; j+16 <= txnSize; j += 16 {
				a := binary.LittleEndian.Uint64(d[j:])
				b := binary.LittleEndian.Uint64(d[j+8:])
				binary.LittleEndian.PutUint64(dr[j:], a)
				binary.LittleEndian.PutUint64(dr[j+8:], b)
				ones += bits.OnesCount64(a) + bits.OnesCount64(b)
				toggles += bits.OnesCount64(a^(a<<32|carry)) + bits.OnesCount64(b^(b<<32|a>>32))
				carry = b >> 32
			}
			for ; j+8 <= txnSize; j += 8 {
				a := binary.LittleEndian.Uint64(d[j:])
				binary.LittleEndian.PutUint64(dr[j:], a)
				ones += bits.OnesCount64(a)
				toggles += bits.OnesCount64(a ^ (a<<32 | carry))
				carry = a >> 32
			}
			off += txnSize
		}
		return ones, toggles
	}
	carry = w
	off := 0
	for i := range txns {
		d := txns[i].Data[:txnSize:txnSize]
		dr := dst[off : off+txnSize : off+txnSize]
		j := 0
		if i == 0 {
			j = 8
		}
		for ; j+16 <= txnSize; j += 16 {
			a := binary.LittleEndian.Uint64(d[j:])
			b := binary.LittleEndian.Uint64(d[j+8:])
			binary.LittleEndian.PutUint64(dr[j:], a)
			binary.LittleEndian.PutUint64(dr[j+8:], b)
			ones += bits.OnesCount64(a) + bits.OnesCount64(b)
			toggles += bits.OnesCount64(a^carry) + bits.OnesCount64(b^a)
			carry = b
		}
		for ; j+8 <= txnSize; j += 8 {
			a := binary.LittleEndian.Uint64(d[j:])
			binary.LittleEndian.PutUint64(dr[j:], a)
			ones += bits.OnesCount64(a)
			toggles += bits.OnesCount64(a ^ carry)
			carry = a
		}
		off += txnSize
	}
	return ones, toggles
}
