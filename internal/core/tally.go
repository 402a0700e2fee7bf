package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Tally is the wire activity of one batch on a channel of one beat width,
// counted by an encode kernel in the same pass that encodes the batch: the
// 1 values and beat toggles of the source (the baseline transfer) and of its
// encoding (the encoded transfer). The toggles are the batch's interior
// ones, between consecutive beats of the batch; the toggles from the bus's
// previous beat into the batch's first beat are the bus's to add
// (bus.(*Bus).ChargeBatch).
type Tally struct {
	SrcOnes, SrcToggles int
	EncOnes, EncToggles int
}

// Tallies reports whether EncodeTally serves txnBytes-byte transactions on
// beatBytes-byte beats: the paper's 32-byte / 3-stage shape, whose register
// kernel (universal32x3) it runs, on a 4- or 8-byte beat.
func (c *Universal) Tallies(txnBytes, beatBytes int) bool {
	return (beatBytes == 4 || beatBytes == 8) && c.check(txnBytes) == nil && c.fast32
}

// EncodeTally encodes the n transactions of src, each txnBytes long, into
// out as n contiguous records, byte-identical to EncodeBatch's, and counts
// the batch's wire activity on beatBytes-byte beats while each transaction
// is still in registers, from load through encode and count. A transaction
// identical to its predecessor reuses its record and counts, as in
// EncodeBatch, and BatchReuse counts it the same way.
func (c *Universal) EncodeTally(out, src []byte, n, txnBytes, beatBytes int) (Tally, error) {
	if !c.Tallies(txnBytes, beatBytes) {
		return Tally{}, fmt.Errorf("%w: %s has no encode-and-count kernel for %d-byte transactions on %d-byte beats",
			ErrBadLength, c.Name(), txnBytes, beatBytes)
	}
	if n < 0 || len(src) != n*txnBytes || len(out) != len(src) {
		return Tally{}, fmt.Errorf("core: tally batch of %d transactions of %d bytes has %d source and %d record bytes",
			n, txnBytes, len(src), len(out))
	}
	c.batchTxns += uint64(n)
	s := uint(beatBytes) * 8
	// w and e hold the previous distinct transaction and its record, and
	// local their counts; p3 and q3 are the last words of the previous
	// transaction and record, for the boundary toggles.
	var t, local Tally
	var w0, w1, w2, w3, e0, e1, e2, e3 uint64
	for i := 0; i+32 <= len(src); i += 32 {
		p3, q3 := w3, e3
		x0 := binary.LittleEndian.Uint64(src[i:])
		x1 := binary.LittleEndian.Uint64(src[i+8:])
		x2 := binary.LittleEndian.Uint64(src[i+16:])
		x3 := binary.LittleEndian.Uint64(src[i+24:])
		if i > 0 && (x0^w0)|(x1^w1)|(x2^w2)|(x3^w3) == 0 {
			c.batchHits++
		} else {
			w0, w1, w2, w3 = x0, x1, x2, x3
			e0, e1, e2, e3 = universal32x3(w0, w1, w2, w3, c.ZDR)
			local.SrcOnes, local.SrcToggles = tally4(w0, w1, w2, w3, s)
			local.EncOnes, local.EncToggles = tally4(e0, e1, e2, e3, s)
		}
		rec := out[i : i+32]
		binary.LittleEndian.PutUint64(rec, e0)
		binary.LittleEndian.PutUint64(rec[8:], e1)
		binary.LittleEndian.PutUint64(rec[16:], e2)
		binary.LittleEndian.PutUint64(rec[24:], e3)
		t.add(local)
		if i > 0 {
			t.SrcToggles += boundaryToggles(p3, w0, s)
			t.EncToggles += boundaryToggles(q3, e0, s)
		}
	}
	return t, nil
}

func (t *Tally) add(o Tally) {
	t.SrcOnes += o.SrcOnes
	t.SrcToggles += o.SrcToggles
	t.EncOnes += o.EncOnes
	t.EncToggles += o.EncToggles
}

// The counting below views a transaction as little-endian words on beats of
// s bits, 32 or 64: a word holds two beats or one. A word's beats, shifted
// up one beat with the previous word's last beat carried in, line up with
// the beats before them, so w ^ (w<<s | p>>(64-s)) marks every toggle into
// w's beats; at s = 64 the shifts give 0 and p, so the carry is all of p.

// beatToggles returns the toggles into the beats of word w from the beats
// before them, where p is the word before w.
func beatToggles(w, p uint64, s uint) int {
	return bits.OnesCount64(w ^ (w<<s | p>>(64-s)))
}

// boundaryToggles returns the toggles from the last beat of word last into
// the first beat of word first.
func boundaryToggles(last, first uint64, s uint) int {
	return bits.OnesCount64((first ^ last>>(64-s)) & (uint64(1)<<s - 1))
}

// tally4 returns the 1 values of a 32-byte transaction and the toggles
// between its own beats. Carrying w0<<(64-s) into w0 compares w0's first
// beat with itself.
func tally4(w0, w1, w2, w3 uint64, s uint) (ones, toggles int) {
	ones = bits.OnesCount64(w0) + bits.OnesCount64(w1) + bits.OnesCount64(w2) + bits.OnesCount64(w3)
	toggles = beatToggles(w0, w0<<(64-s), s) + beatToggles(w1, w0, s) + beatToggles(w2, w1, s) + beatToggles(w3, w2, s)
	return ones, toggles
}
