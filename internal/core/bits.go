// Package core implements the paper's primary contribution: the Base+XOR
// Transfer family of low-energy data-bus encodings (HPCA 2018), including
// N-byte Base+XOR Transfer, Zero Data Remapping (ZDR), and Universal
// Base+XOR Transfer, together with the bit-level utilities the evaluation
// relies on (1-value counting, Hamming distance).
//
// All encoders in this package are bijections on fixed-size transactions:
// Decode(Encode(x)) == x for every x, and no metadata is required. That
// property is what lets the encoded form be stored as-is in DRAM or caches.
package core

import (
	"encoding/binary"
	"math/bits"
)

// OnesCount returns the number of 1 bits in b. On the paper's Pseudo Open
// Drain (POD) I/O interface a 1 value is the energy-expensive symbol, so this
// count is the primary figure of merit for every encoding scheme.
func OnesCount(b []byte) int {
	n := 0
	i := 0
	for ; i+8 <= len(b); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(b[i:]))
	}
	if i+4 <= len(b) {
		n += bits.OnesCount32(binary.LittleEndian.Uint32(b[i:]))
		i += 4
	}
	for ; i < len(b); i++ {
		n += bits.OnesCount8(b[i])
	}
	return n
}

// HammingDistance returns the number of bit positions at which a and b
// differ. It panics if the slices have different lengths: comparing words of
// unequal width is always a caller bug in this codebase.
func HammingDistance(a, b []byte) int {
	if len(a) != len(b) {
		panic("core: HammingDistance on slices of unequal length")
	}
	n := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]))
	}
	if i+4 <= len(a) {
		n += bits.OnesCount32(binary.LittleEndian.Uint32(a[i:]) ^ binary.LittleEndian.Uint32(b[i:]))
		i += 4
	}
	for ; i < len(a); i++ {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// xorInto stores a XOR b into dst. All three slices must have the same
// length; dst may alias a or b.
func xorInto(dst, a, b []byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// isZero reports whether every byte of e is zero, i.e. whether e is a "zero
// data element" in the paper's sense (§IV-A).
func isZero(e []byte) bool {
	for _, v := range e {
		if v != 0 {
			return false
		}
	}
	return true
}

// equal reports whether a and b hold identical bytes.
func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// zdrConstByte is the most significant byte of the default ZDR remapping
// constant.
// The paper selects 0x40000000 for 32-bit elements (§IV-A): a single 1 bit,
// placed where real data rarely collides (not a small power-of-two offset).
// We generalize it to any element width as 0x40 followed by zero bytes,
// which preserves both required properties (weight 1; rare collisions).
const zdrConstByte = 0x40

// DefaultZDRConst returns the paper's remapping constant for an n-byte
// element: 0x40 followed by zeros (0x40000000 at n = 4).
func DefaultZDRConst(n int) []byte {
	c := make([]byte, n)
	c[0] = zdrConstByte
	return c
}

// zdrConstMatches reports whether e equals the given ZDR constant.
func zdrConstMatches(e, cnst []byte) bool {
	for i := range e {
		if e[i] != cnst[i] {
			return false
		}
	}
	return true
}

// writeZDRConst fills e with the ZDR remapping constant.
func writeZDRConst(e, cnst []byte) {
	copy(e, cnst)
}

// equalsBaseXORConst reports whether e == base ^ cnst without allocating.
func equalsBaseXORConst(e, base, cnst []byte) bool {
	for i := range e {
		if e[i] != base[i]^cnst[i] {
			return false
		}
	}
	return true
}

// writeBaseXORConst stores base ^ cnst into dst.
func writeBaseXORConst(dst, base, cnst []byte) {
	for i := range dst {
		dst[i] = base[i] ^ cnst[i]
	}
}
