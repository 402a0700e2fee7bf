package core

// Word-parallel codec kernels. The byte-generic helpers in bits.go remain
// the reference implementation (and the fallback for element widths with no
// machine-word shape); everything in this file recomputes the same functions
// in uint16/uint32/uint64 lanes so that a whole element — or a whole
// transaction — moves through registers instead of byte loops. This mirrors
// the paper's hardware (Fig 10), where zero detection and the base compare
// are single parallel comparators over the element, not per-bit scans.
//
// Two kernel shapes exist:
//
//   - Whole-transaction kernels for the common 2/4/8-byte bases
//     (encodeBaseXOR{2,4,8} / decodeBaseXOR{2,4,8}): one load per element,
//     the running base kept in a register, and ZDR symbol detection as two
//     word compares.
//   - Multiword element kernels for any width that is a multiple of 8
//     bytes (encodeElemWords / decodeElemWords): a single fused pass that
//     XORs and accumulates the ZDR detection masks together, so the
//     branchy per-byte early-exit compares of the reference path become
//     two branch-free OR-reductions checked once per element.
//
// All kernels assume little-endian byte<->word views; encoding/binary's
// fixed-offset loads compile to single MOVs on amd64/arm64 and byte-swapped
// loads elsewhere, so results are identical on every platform.

import "encoding/binary"

// SWAR lane constants for the packed 2-byte kernels: four 16-bit elements
// ride one uint64.
const (
	lanes16Rep  = 0x0001_0001_0001_0001 // replicates a 16-bit value to all lanes
	lanes16Low  = 0x7fff_7fff_7fff_7fff // low 15 bits of each lane
	lanes16High = 0x8000_8000_8000_8000 // sign bit of each lane
)

// zeroLanes16 returns a mask with 0xFFFF in every 16-bit lane of w that is
// zero and 0x0000 elsewhere. The non-zero indicator uses the carry-safe form
// (((w & low15) + low15) | w) & high — per-lane sums peak at 0xFFFE, so no
// carry crosses a lane boundary (the naive w - 1 borrow trick does not have
// this property). The indicator bit is then smeared across its lane.
func zeroLanes16(w uint64) uint64 {
	nz := (((w & lanes16Low) + lanes16Low) | w) & lanes16High
	ind := nz ^ lanes16High // 0x8000 in each zero lane
	ind |= ind >> 1
	ind |= ind >> 2
	ind |= ind >> 4
	ind |= ind >> 8
	return ind
}

// encodeBaseXOR2 is the whole-transaction Encode kernel for 2-byte bases.
// len(src) == len(out), a positive multiple of 2; out must not alias src.
// Whole 8-byte words run the packed SWAR kernel (four elements per step);
// the scalar chain only covers the sub-word tail of odd-shaped transactions.
func encodeBaseXOR2(out, src []byte, cnst uint16, zdr, fixed bool) {
	off := encodeBaseXOR2Packed(out, src, cnst, zdr, fixed)
	if off == len(src) {
		return
	}
	var base uint16
	switch {
	case off == 0:
		base = binary.LittleEndian.Uint16(src)
		binary.LittleEndian.PutUint16(out, base)
		off = 2
	case fixed:
		base = binary.LittleEndian.Uint16(src)
	default:
		base = binary.LittleEndian.Uint16(src[off-2:])
	}
	for ; off < len(src); off += 2 {
		in := binary.LittleEndian.Uint16(src[off:])
		o := in ^ base
		if zdr {
			if in == 0 {
				o = cnst
			} else if in == base^cnst {
				o = base
			}
		}
		binary.LittleEndian.PutUint16(out[off:], o)
		if !fixed {
			base = in
		}
	}
}

// encodeBaseXOR2Packed encodes the whole 8-byte words of src — four 16-bit
// elements per uint64 — and returns the byte offset it stopped at. The
// adjacent-base vector for a word is the word shifted one lane up with the
// previous word's top lane carried in; ZDR remaps are applied as lane masks
// (base⊕const replacement first, then the zero replacement, matching the
// scalar chain's precedence).
func encodeBaseXOR2Packed(out, src []byte, cnst uint16, zdr, fixed bool) int {
	if len(src) < 8 {
		return 0
	}
	kRepl := uint64(cnst) * lanes16Rep
	var carry, basesFixed uint64
	if fixed {
		basesFixed = uint64(binary.LittleEndian.Uint16(src)) * lanes16Rep
	}
	off := 0
	for ; off+8 <= len(src); off += 8 {
		w := binary.LittleEndian.Uint64(src[off:])
		bases := basesFixed
		if !fixed {
			bases = w<<16 | carry
			carry = w >> 48
		}
		x := w ^ bases
		if zdr {
			if eq := zeroLanes16(w ^ bases ^ kRepl); eq != 0 { // in == base^const
				x = x&^eq | bases&eq
			}
			if z := zeroLanes16(w); z != 0 { // in == 0 wins over the above
				x = x&^z | kRepl&z
			}
		}
		if off == 0 {
			// Lane 0 is the base element, transferred unchanged.
			x = x&^0xffff | w&0xffff
		}
		binary.LittleEndian.PutUint64(out[off:], x)
	}
	return off
}

// decodeBaseXOR2 inverts encodeBaseXOR2. dst must not alias enc.
func decodeBaseXOR2(dst, enc []byte, cnst uint16, zdr, fixed bool) {
	off := decodeBaseXOR2Packed(dst, enc, cnst, zdr, fixed)
	if off == len(dst) {
		return
	}
	var base uint16
	switch {
	case off == 0:
		base = binary.LittleEndian.Uint16(enc)
		binary.LittleEndian.PutUint16(dst, base)
		off = 2
	case fixed:
		base = binary.LittleEndian.Uint16(dst)
	default:
		base = binary.LittleEndian.Uint16(dst[off-2:])
	}
	for ; off < len(dst); off += 2 {
		e := binary.LittleEndian.Uint16(enc[off:])
		o := e ^ base
		if zdr {
			if e == cnst {
				o = 0
			} else if e == base {
				o = base ^ cnst
			}
		}
		binary.LittleEndian.PutUint16(dst[off:], o)
		if !fixed {
			base = o
		}
	}
}

// decodeBaseXOR2Packed decodes the whole 8-byte words of enc and returns the
// byte offset it stopped at. Fixed mode is fully lane-parallel. Adjacent mode
// looks serial — each lane's base is the previous *decoded* lane — but the
// plain-XOR part telescopes, so a SWAR prefix-XOR recovers all four lanes at
// once; with ZDR, a remap in lane j shows up either as enc == const (visible
// in the encoded word) or as a zero tentative lane (enc == decoded base), so
// the serial in-register walk only runs for words where a remap actually
// fired.
func decodeBaseXOR2Packed(dst, enc []byte, cnst uint16, zdr, fixed bool) int {
	if len(enc) < 8 {
		return 0
	}
	kRepl := uint64(cnst) * lanes16Rep
	if fixed {
		bRepl := uint64(binary.LittleEndian.Uint16(enc)) * lanes16Rep
		off := 0
		for ; off+8 <= len(enc); off += 8 {
			e := binary.LittleEndian.Uint64(enc[off:])
			x := e ^ bRepl
			if zdr {
				if eqB := zeroLanes16(e ^ bRepl); eqB != 0 { // enc == base
					x = x&^eqB | (bRepl^kRepl)&eqB
				}
				if eqC := zeroLanes16(e ^ kRepl); eqC != 0 { // enc == const wins
					x &^= eqC
				}
			}
			if off == 0 {
				x = x&^0xffff | e&0xffff
			}
			binary.LittleEndian.PutUint64(dst[off:], x)
		}
		return off
	}
	var carry uint64 // decoded top lane of the previous word
	off := 0
	for ; off+8 <= len(enc); off += 8 {
		e := binary.LittleEndian.Uint64(enc[off:])
		x := e
		x ^= x << 16
		x ^= x << 32
		x ^= carry * lanes16Rep
		if zdr {
			det := zeroLanes16(x) | zeroLanes16(e^kRepl)
			if off == 0 {
				det &^= 0xffff // lane 0 is the raw base element, never remapped
			}
			if det != 0 {
				x = decodeWord2Serial(e, uint16(carry), cnst, off == 0)
			}
		}
		if off == 0 {
			x = x&^0xffff | e&0xffff
		}
		carry = x >> 48
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
	return off
}

// decodeWord2Serial decodes one packed word of four 16-bit lanes through the
// reference serial ZDR chain, entirely in registers. base is the decoded lane
// preceding e; when first is true, lane 0 of e is the raw base element.
func decodeWord2Serial(e uint64, base uint16, cnst uint16, first bool) uint64 {
	var d uint64
	sh := 0
	if first {
		base = uint16(e)
		d = uint64(base)
		sh = 16
	}
	for ; sh < 64; sh += 16 {
		ev := uint16(e >> sh)
		var o uint16
		switch {
		case ev == cnst:
			o = 0
		case ev == base:
			o = base ^ cnst
		default:
			o = ev ^ base
		}
		d |= uint64(o) << sh
		base = o
	}
	return d
}

// encodeBaseXOR4 is the whole-transaction Encode kernel for 4-byte bases.
func encodeBaseXOR4(out, src []byte, cnst uint32, zdr, fixed bool) {
	if len(src)%8 == 0 && len(src) >= 8 {
		encodeBaseXOR4Packed(out, src, cnst, zdr, fixed)
		return
	}
	base := binary.LittleEndian.Uint32(src)
	binary.LittleEndian.PutUint32(out, base)
	for off := 4; off < len(src); off += 4 {
		in := binary.LittleEndian.Uint32(src[off:])
		o := in ^ base
		if zdr {
			if in == 0 {
				o = cnst
			} else if in == base^cnst {
				o = base
			}
		}
		binary.LittleEndian.PutUint32(out[off:], o)
		if !fixed {
			base = in
		}
	}
}

// SWAR lane constants for the packed 4-byte kernel: two 32-bit elements ride
// one uint64.
const (
	lanes32Rep  = 0x0000_0001_0000_0001 // replicates a 32-bit value to both lanes
	lanes32Low  = 0x7fff_ffff_7fff_ffff // low 31 bits of each lane
	lanes32High = 0x8000_0000_8000_0000 // sign bit of each lane
)

// zeroLanes32 returns a mask with 0xFFFFFFFF in every 32-bit lane of w that
// is zero and 0 elsewhere, using the same carry-safe non-zero indicator as
// zeroLanes16. With only two lanes the smear is a single multiply: the
// per-lane indicator bits sit 32 apart, so indicator * 0xFFFFFFFF fills both
// lanes without overlap.
func zeroLanes32(w uint64) uint64 {
	nz := (((w & lanes32Low) + lanes32Low) | w) & lanes32High
	return ((nz ^ lanes32High) >> 31) * 0xffff_ffff
}

// encodeBaseXOR4Packed processes two 4-byte elements per uint64. Lane 0 of
// word 0 is the raw passthrough base element; in adjacent mode each lane's
// base is the previous element (bases = w<<32 | carry), in fixed mode both
// lanes use the replicated first element. ZDR detection runs on the cheap
// carry-safe non-zero indicators only; the full lane-mask remap is deferred
// behind a branch that fires iff some lane is zero or collides with
// base^cnst — rare on real payloads, so the steady state is a pure
// XOR-and-indicator walk. Remaps apply base-collision first so a zero
// element wins when the two detections coincide, the precedence the scalar
// chain and the reference path implement.
func encodeBaseXOR4Packed(out, src []byte, cnst uint32, zdr, fixed bool) {
	kRepl := uint64(cnst) * lanes32Rep
	basesFixed := uint64(binary.LittleEndian.Uint32(src)) * lanes32Rep
	var carry uint64
	for off := 0; off+8 <= len(src); off += 8 {
		w := binary.LittleEndian.Uint64(src[off:])
		bases := basesFixed
		if !fixed {
			bases = w<<32 | carry
			carry = w >> 32
		}
		o := w ^ bases
		if zdr {
			x := o ^ kRepl // w ^ (bases^cnst): zero lane ⇒ collision
			nzW := (((w & lanes32Low) + lanes32Low) | w) & lanes32High
			nzX := (((x & lanes32Low) + lanes32Low) | x) & lanes32High
			if nzW&nzX != lanes32High {
				// Cold path: some lane needs a remap; build the full lane
				// masks and select.
				eqBC := zeroLanes32(x)
				o = o&^eqBC | bases&eqBC
				eqZ := zeroLanes32(w)
				o = o&^eqZ | kRepl&eqZ
			}
		}
		if off == 0 {
			// The first element is transmitted raw; whatever the lane
			// pipeline produced for lane 0 (its base register was synthetic)
			// is replaced by the passthrough bytes.
			o = o&^0xffff_ffff | w&0xffff_ffff
		}
		binary.LittleEndian.PutUint64(out[off:], o)
	}
}

// decodeBaseXOR4 inverts encodeBaseXOR4.
func decodeBaseXOR4(dst, enc []byte, cnst uint32, zdr, fixed bool) {
	base := binary.LittleEndian.Uint32(enc)
	binary.LittleEndian.PutUint32(dst, base)
	for off := 4; off < len(dst); off += 4 {
		e := binary.LittleEndian.Uint32(enc[off:])
		o := e ^ base
		if zdr {
			if e == cnst {
				o = 0
			} else if e == base {
				o = base ^ cnst
			}
		}
		binary.LittleEndian.PutUint32(dst[off:], o)
		if !fixed {
			base = o
		}
	}
}

// encodeBaseXOR8 is the whole-transaction Encode kernel for 8-byte bases.
func encodeBaseXOR8(out, src []byte, cnst uint64, zdr, fixed bool) {
	base := binary.LittleEndian.Uint64(src)
	binary.LittleEndian.PutUint64(out, base)
	for off := 8; off < len(src); off += 8 {
		in := binary.LittleEndian.Uint64(src[off:])
		o := in ^ base
		if zdr {
			if in == 0 {
				o = cnst
			} else if in == base^cnst {
				o = base
			}
		}
		binary.LittleEndian.PutUint64(out[off:], o)
		if !fixed {
			base = in
		}
	}
}

// decodeBaseXOR8 inverts encodeBaseXOR8.
func decodeBaseXOR8(dst, enc []byte, cnst uint64, zdr, fixed bool) {
	base := binary.LittleEndian.Uint64(enc)
	binary.LittleEndian.PutUint64(dst, base)
	for off := 8; off < len(dst); off += 8 {
		e := binary.LittleEndian.Uint64(enc[off:])
		o := e ^ base
		if zdr {
			if e == cnst {
				o = 0
			} else if e == base {
				o = base ^ cnst
			}
		}
		binary.LittleEndian.PutUint64(dst[off:], o)
		if !fixed {
			base = o
		}
	}
}

// encodeElemWords encodes one element whose width is a multiple of 8 bytes,
// equivalent to encodeElement. The common case (no ZDR remap fires) is a
// single pass that writes in^base while OR-accumulating the two detection
// masks; the rare remap cases overwrite the element afterwards. out must not
// alias in or base.
// The walk is scheduled two words wide with independent accumulator pairs
// (the erasure-coding playbook's XOR scheduling): the OR-reduction chains no
// longer serialize consecutive iterations, so the loads, XORs and mask
// accumulation of both lanes issue in parallel.
func encodeElemWords(out, in, base, cnst []byte, zdr bool) {
	if !zdr {
		xorWords(out, in, base)
		return
	}
	var accZero0, accZero1, accConst0, accConst1 uint64
	off := 0
	for ; off+16 <= len(in); off += 16 {
		iw0 := binary.LittleEndian.Uint64(in[off:])
		iw1 := binary.LittleEndian.Uint64(in[off+8:])
		bw0 := binary.LittleEndian.Uint64(base[off:])
		bw1 := binary.LittleEndian.Uint64(base[off+8:])
		cw0 := binary.LittleEndian.Uint64(cnst[off:])
		cw1 := binary.LittleEndian.Uint64(cnst[off+8:])
		accZero0 |= iw0
		accZero1 |= iw1
		accConst0 |= iw0 ^ bw0 ^ cw0
		accConst1 |= iw1 ^ bw1 ^ cw1
		binary.LittleEndian.PutUint64(out[off:], iw0^bw0)
		binary.LittleEndian.PutUint64(out[off+8:], iw1^bw1)
	}
	if off+8 <= len(in) {
		iw := binary.LittleEndian.Uint64(in[off:])
		bw := binary.LittleEndian.Uint64(base[off:])
		cw := binary.LittleEndian.Uint64(cnst[off:])
		accZero0 |= iw
		accConst0 |= iw ^ bw ^ cw
		binary.LittleEndian.PutUint64(out[off:], iw^bw)
	}
	if accZero0|accZero1 == 0 {
		copy(out, cnst)
	} else if accConst0|accConst1 == 0 {
		copy(out, base)
	}
}

// decodeElemWords inverts encodeElemWords. out may alias enc (in-place
// decode): each word is read before the same word is written, and the remap
// fix-ups depend only on base and cnst. out must not alias base.
// Like encodeElemWords, the pass is two words wide with split accumulators.
func decodeElemWords(out, enc, base, cnst []byte, zdr bool) {
	if !zdr {
		xorWords(out, enc, base)
		return
	}
	var accConst0, accConst1, accBase0, accBase1 uint64
	off := 0
	for ; off+16 <= len(enc); off += 16 {
		ew0 := binary.LittleEndian.Uint64(enc[off:])
		ew1 := binary.LittleEndian.Uint64(enc[off+8:])
		bw0 := binary.LittleEndian.Uint64(base[off:])
		bw1 := binary.LittleEndian.Uint64(base[off+8:])
		cw0 := binary.LittleEndian.Uint64(cnst[off:])
		cw1 := binary.LittleEndian.Uint64(cnst[off+8:])
		accConst0 |= ew0 ^ cw0
		accConst1 |= ew1 ^ cw1
		accBase0 |= ew0 ^ bw0
		accBase1 |= ew1 ^ bw1
		binary.LittleEndian.PutUint64(out[off:], ew0^bw0)
		binary.LittleEndian.PutUint64(out[off+8:], ew1^bw1)
	}
	if off+8 <= len(enc) {
		ew := binary.LittleEndian.Uint64(enc[off:])
		bw := binary.LittleEndian.Uint64(base[off:])
		cw := binary.LittleEndian.Uint64(cnst[off:])
		accConst0 |= ew ^ cw
		accBase0 |= ew ^ bw
		binary.LittleEndian.PutUint64(out[off:], ew^bw)
	}
	if accConst0|accConst1 == 0 {
		for i := range out {
			out[i] = 0
		}
	} else if accBase0|accBase1 == 0 {
		xorWords(out, base, cnst)
	}
}

// xorWords stores a XOR b into dst in 8-byte lanes. All slices have the same
// length, a multiple of 8; dst may alias a or b.
func xorWords(dst, a, b []byte) {
	for off := 0; off+8 <= len(dst); off += 8 {
		binary.LittleEndian.PutUint64(dst[off:],
			binary.LittleEndian.Uint64(a[off:])^binary.LittleEndian.Uint64(b[off:]))
	}
}

// universal32x3 is the whole-transaction Universal kernel for the paper's
// dominant shape: a 32-byte sector through 3 halving stages (Table II). The
// entire transaction lives in four uint64 registers (w0 holds bytes 0-7,
// little-endian); every stage's ZDR symbol detection is one or two word
// compares, exactly the parallel comparator tree of Fig 10. Stage constants
// are the defaults (0x40 00 …), whose little-endian word form is just 0x40.
// Encode, EncodeBatch and EncodeTally all run it.
func universal32x3(w0, w1, w2, w3 uint64, zdr bool) (e0, e1, e2, e3 uint64) {
	const k = uint64(zdrConstByte)
	// Stage 1: 16-byte halves, base (w0,w1), constant (k,0).
	o2, o3 := w2^w0, w3^w1
	if zdr {
		if w2|w3 == 0 {
			o2, o3 = k, 0
		} else if o2 == k && o3 == 0 { // in == base^const
			o2, o3 = w0, w1
		}
	}
	// Stage 2: 8-byte halves, base w0, constant k.
	o1 := w1 ^ w0
	if zdr {
		if w1 == 0 {
			o1 = k
		} else if o1 == k {
			o1 = w0
		}
	}
	// Stage 3: 4-byte halves inside w0 (low word is the effective base).
	lo, hi := uint32(w0), uint32(w0>>32)
	oh := hi ^ lo
	if zdr {
		if hi == 0 {
			oh = uint32(k)
		} else if oh == uint32(k) {
			oh = lo
		}
	}
	return uint64(lo) | uint64(oh)<<32, o1, o2, o3
}

// decodeUniversal32x3 inverts universal32x3, unwinding the stages
// innermost-first. dst must not alias enc.
func decodeUniversal32x3(dst, enc []byte, zdr bool) {
	e0 := binary.LittleEndian.Uint64(enc)
	e1 := binary.LittleEndian.Uint64(enc[8:])
	e2 := binary.LittleEndian.Uint64(enc[16:])
	e3 := binary.LittleEndian.Uint64(enc[24:])
	const k = uint64(zdrConstByte)
	// Stage 3: recover the high 4-byte half of word 0.
	lo, hi := uint32(e0), uint32(e0>>32)
	dh := hi ^ lo
	if zdr {
		if hi == uint32(k) {
			dh = 0
		} else if hi == lo {
			dh = lo ^ uint32(k)
		}
	}
	w0 := uint64(lo) | uint64(dh)<<32
	// Stage 2: recover word 1 against the decoded word 0.
	w1 := e1 ^ w0
	if zdr {
		if e1 == k {
			w1 = 0
		} else if e1 == w0 {
			w1 = w0 ^ k
		}
	}
	// Stage 1: recover words 2 and 3 against the decoded (w0,w1).
	w2, w3 := e2^w0, e3^w1
	if zdr {
		if e2 == k && e3 == 0 {
			w2, w3 = 0, 0
		} else if e2 == w0 && e3 == w1 {
			w2, w3 = w0^k, w1
		}
	}
	binary.LittleEndian.PutUint64(dst, w0)
	binary.LittleEndian.PutUint64(dst[8:], w1)
	binary.LittleEndian.PutUint64(dst[16:], w2)
	binary.LittleEndian.PutUint64(dst[24:], w3)
}

// encodeElemU32 encodes one 4-byte element in a single uint32 lane,
// equivalent to encodeElement. out must not alias in or base.
func encodeElemU32(out, in, base []byte, cnst uint32, zdr bool) {
	iw := binary.LittleEndian.Uint32(in)
	bw := binary.LittleEndian.Uint32(base)
	o := iw ^ bw
	if zdr {
		if iw == 0 {
			o = cnst
		} else if iw == bw^cnst {
			o = bw
		}
	}
	binary.LittleEndian.PutUint32(out, o)
}

// decodeElemU32 inverts encodeElemU32; out may alias enc.
func decodeElemU32(out, enc, base []byte, cnst uint32, zdr bool) {
	ew := binary.LittleEndian.Uint32(enc)
	bw := binary.LittleEndian.Uint32(base)
	o := ew ^ bw
	if zdr {
		if ew == cnst {
			o = 0
		} else if ew == bw {
			o = bw ^ cnst
		}
	}
	binary.LittleEndian.PutUint32(out, o)
}

// encodeElemU16 encodes one 2-byte element in a single uint16 lane.
func encodeElemU16(out, in, base []byte, cnst uint16, zdr bool) {
	iw := binary.LittleEndian.Uint16(in)
	bw := binary.LittleEndian.Uint16(base)
	o := iw ^ bw
	if zdr {
		if iw == 0 {
			o = cnst
		} else if iw == bw^cnst {
			o = bw
		}
	}
	binary.LittleEndian.PutUint16(out, o)
}

// decodeElemU16 inverts encodeElemU16; out may alias enc.
func decodeElemU16(out, enc, base []byte, cnst uint16, zdr bool) {
	ew := binary.LittleEndian.Uint16(enc)
	bw := binary.LittleEndian.Uint16(base)
	o := ew ^ bw
	if zdr {
		if ew == cnst {
			o = 0
		} else if ew == bw {
			o = bw ^ cnst
		}
	}
	binary.LittleEndian.PutUint16(out, o)
}
