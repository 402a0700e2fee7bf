package core

import (
	"encoding/binary"
	"fmt"
)

// Universal is Universal Base+XOR Transfer (§IV-C): a multi-stage halving
// encoder that extracts intra-transaction similarity at every power-of-two
// granularity without a priori knowledge of the underlying element size and
// without metadata.
//
// Stage 1 splits the transaction into two halves and replaces the right half
// with (right XOR left); stage 2 repeats on the surviving left half, and so
// on for Stages stages. If every N-byte element of the transaction is
// similar, then every 2N-byte element is also similar (Fig 7a), so some
// stage always lines up with the data and produces a mostly-zero residue.
// The left-most unencoded chunk after the final stage is the effective base
// element (Fig 8b).
//
// With ZDR enabled, Zero Data Remapping is applied at each stage with a
// constant sized to that stage's half-width, so all-zero halves survive
// cheaply instead of duplicating the opposite half.
type Universal struct {
	// Stages is the number of halving stages. The paper's hardware uses 3
	// stages for 32-byte transactions (Table II), leaving a 4-byte
	// effective base. Must satisfy 1 <= Stages and len>>Stages >= 1.
	Stages int
	// ZDR enables per-stage Zero Data Remapping.
	ZDR bool

	// consts caches per-stage remapping constants, keyed by half-width.
	consts map[int][]byte

	// plan caches the per-stage kernel selection and resolved constants
	// for the last transaction length, so the hot path runs with no map
	// lookups or dispatch recomputation.
	plan     []uStage
	planLen  int
	planRef  bool
	planStgs int
	// fast32 selects the fully register-resident kernel for the paper's
	// 32-byte / 3-stage configuration.
	fast32 bool

	// batchHits/batchTxns count EncodeBatch cross-transaction reuse.
	batchHits, batchTxns uint64

	// forceRef pins the byte-generic reference path; the differential
	// tests use it to check the word kernels against it.
	forceRef bool
}

// uKernel names the datapath one Universal stage runs on.
type uKernel int

const (
	uRef   uKernel = iota // byte-generic reference
	uWords                // multiword kernel (half % 8 == 0)
	uU32                  // single uint32 lane (half == 4)
	uU16                  // single uint16 lane (half == 2)
)

// uStage is one resolved halving stage: the surviving region is the first
// 2*half bytes, the stage rewrites its upper half.
type uStage struct {
	half  int
	kern  uKernel
	cnst  []byte
	cnstW uint32 // first-word form for the single-lane kernels
}

var _ Codec = &Universal{}

// NewUniversal returns the paper's evaluated configuration: Universal
// Base+XOR Transfer with Zero Data Remapping and the given stage count
// (3 stages for 32-byte transactions).
func NewUniversal(stages int) *Universal {
	return &Universal{Stages: stages, ZDR: true}
}

// Name implements Codec.
func (c *Universal) Name() string {
	if c.ZDR {
		return "Universal XOR+ZDR"
	}
	return "Universal XOR"
}

// MetaBits implements Codec; Universal Base+XOR requires no metadata.
func (c *Universal) MetaBits(int) int { return 0 }

// Reset implements Codec; Universal is stateless across transactions.
func (c *Universal) Reset() {}

// constFor returns the stage constant for a half of the given byte width.
func (c *Universal) constFor(half int) []byte {
	if c.consts == nil {
		c.consts = make(map[int][]byte)
	}
	k, ok := c.consts[half]
	if !ok {
		k = DefaultZDRConst(half)
		c.consts[half] = k
	}
	return k
}

func (c *Universal) check(n int) error {
	if c.Stages < 1 {
		return fmt.Errorf("core: %s requires at least one stage", c.Name())
	}
	if n>>uint(c.Stages) < 1 || n%(1<<uint(c.Stages)) != 0 {
		return badLength(c.Name(), n)
	}
	if c.planLen != n || c.planStgs != c.Stages || c.planRef != c.forceRef {
		c.plan = c.plan[:0]
		for s := 0; s < c.Stages; s++ {
			half := n >> uint(s+1)
			st := uStage{half: half, kern: uRef, cnst: c.constFor(half)}
			switch {
			case c.forceRef:
				// keep uRef
			case half%8 == 0:
				st.kern = uWords
			case half == 4:
				st.kern = uU32
				st.cnstW = binary.LittleEndian.Uint32(st.cnst)
			case half == 2:
				st.kern = uU16
				st.cnstW = uint32(binary.LittleEndian.Uint16(st.cnst))
			}
			c.plan = append(c.plan, st)
		}
		c.planLen, c.planStgs, c.planRef = n, c.Stages, c.forceRef
		c.fast32 = !c.forceRef && n == 32 && c.Stages == 3
	}
	return nil
}

// Encode implements Codec. All stages of the hardware implementation operate
// in parallel (Fig 9b); this software model applies them outermost-first,
// which computes the identical result because stage k only reads the region
// stage k+1 rewrites.
func (c *Universal) Encode(dst *Encoded, src []byte) error {
	if err := c.check(len(src)); err != nil {
		return err
	}
	dst.grow(len(src), 0)
	c.encodeResolved(dst.Data, src)
	return nil
}

// encodeResolved runs the stage plan check() resolved for len(src); callers
// must have called check(len(src)) first and sized out to len(src).
// EncodeBatch uses it to amortize the plan resolution over a whole batch.
func (c *Universal) encodeResolved(out, src []byte) {
	if c.fast32 {
		e0, e1, e2, e3 := universal32x3(binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:]),
			binary.LittleEndian.Uint64(src[16:]), binary.LittleEndian.Uint64(src[24:]), c.ZDR)
		binary.LittleEndian.PutUint64(out, e0)
		binary.LittleEndian.PutUint64(out[8:], e1)
		binary.LittleEndian.PutUint64(out[16:], e2)
		binary.LittleEndian.PutUint64(out[24:], e3)
		return
	}
	copy(out, src)
	// The surviving region is always a prefix of the transaction: stage s
	// operates on the first len(src)>>s bytes. Each stage runs the widest
	// kernel its half-width allows (resolved in check); odd widths —
	// possible when len(src) is not a power of two — fall back to the
	// byte-generic reference.
	for i := range c.plan {
		st := &c.plan[i]
		half := st.half
		left := out[:half]
		right := out[half : 2*half]
		in := src[half : 2*half]
		// left still equals src[:half] here — no stage has touched it
		// yet — so it is a valid base for the hardware's parallel view.
		switch st.kern {
		case uWords:
			encodeElemWords(right, in, left, st.cnst, c.ZDR)
		case uU32:
			encodeElemU32(right, in, left, st.cnstW, c.ZDR)
		case uU16:
			encodeElemU16(right, in, left, uint16(st.cnstW), c.ZDR)
		default:
			encodeElement(right, in, left, st.cnst, c.ZDR)
		}
	}
}

// Decode implements Codec by unwinding the stages innermost-first: once the
// effective base is recovered, each stage's right half is re-derived from
// the decoded left half.
func (c *Universal) Decode(dst []byte, src *Encoded) error {
	if len(dst) != len(src.Data) {
		return badLength(c.Name(), len(dst))
	}
	if err := c.check(len(dst)); err != nil {
		return err
	}
	if c.fast32 {
		decodeUniversal32x3(dst, src.Data, c.ZDR)
		return nil
	}
	copy(dst, src.Data)
	// Region sizes grow from the innermost stage outward.
	for s := len(c.plan) - 1; s >= 0; s-- {
		st := &c.plan[s]
		half := st.half
		left := dst[:half]
		right := dst[half : 2*half]
		// left is already fully decoded (inner stages ran first);
		// decode right in place against it.
		switch st.kern {
		case uWords:
			decodeElemWords(right, right, left, st.cnst, c.ZDR)
		case uU32:
			decodeElemU32(right, right, left, st.cnstW, c.ZDR)
		case uU16:
			decodeElemU16(right, right, left, uint16(st.cnstW), c.ZDR)
		default:
			decodeElementInPlace(right, left, st.cnst, c.ZDR)
		}
	}
	return nil
}

// decodeElementInPlace decodes enc (in place) against base, equivalent to
// decodeElement with out == enc.
func decodeElementInPlace(enc, base, cnst []byte, zdr bool) {
	if zdr {
		if zdrConstMatches(enc, cnst) {
			for i := range enc {
				enc[i] = 0
			}
			return
		}
		if equal(enc, base) {
			writeBaseXORConst(enc, base, cnst)
			return
		}
	}
	xorInto(enc, enc, base)
}
