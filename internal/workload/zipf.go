package workload

import "math/rand"

// HotSet models the aggregated-traffic similarity the paper's premise rests
// on: many clients re-touch a small popular working set, so the transaction
// stream repeats — exactly or nearly — a Zipf-weighted set of hot payloads.
// It wraps any base Generator: novel transactions come from the base model,
// repeats re-serve a hot payload, optionally perturbed by a few random bit
// flips to produce near-duplicates instead of exact copies.
//
// The generator is deterministic given the driving rng, like every other
// generator in this package.
type HotSet struct {
	// Base produces novel payloads (and the hot payloads themselves, on
	// each hot key's first use).
	Base Generator
	// Keys is the hot-set cardinality. Zipf rank 0 is the hottest key.
	Keys int
	// S is the Zipf skew (must be > 1, as rand.NewZipf requires); larger
	// values concentrate traffic on fewer keys.
	S float64
	// RepeatProb is the probability in [0, 1] that a transaction re-serves
	// a hot key instead of drawing a novel payload.
	RepeatProb float64
	// FlipBits is the near-duplicate knob: each repeat flips k random bits,
	// k uniform in [0, FlipBits]. Zero keeps every repeat exact.
	FlipBits int

	zipf *rand.Zipf
	hot  [][]byte
}

// KindCycle emits an all-zero payload, one random 4-byte element repeated,
// and a uniformly random payload, in turn — the zero and repeated-element
// payloads that dominate real traffic, next to an incompressible one. As a
// HotSet's Base it makes a third of the hot keys the one zero payload, so
// their bit-flip variants share most LSH band keys.
type KindCycle struct {
	n int
}

// Fill implements Generator.
func (g *KindCycle) Fill(dst []byte, rng *rand.Rand) {
	switch g.n % 3 {
	case 0:
		clear(dst)
	case 1:
		var elem [4]byte
		rng.Read(elem[:])
		for off := 0; off < len(dst); off += len(elem) {
			copy(dst[off:], elem[:])
		}
	default:
		rng.Read(dst)
	}
	g.n++
}

// Fill implements Generator.
func (g *HotSet) Fill(dst []byte, rng *rand.Rand) {
	if g.zipf == nil {
		keys := g.Keys
		if keys < 1 {
			keys = 1
		}
		s := g.S
		if s <= 1 {
			s = 1.2
		}
		g.zipf = rand.NewZipf(rng, s, 1, uint64(keys-1))
		g.hot = make([][]byte, keys)
	}
	if rng.Float64() >= g.RepeatProb {
		g.Base.Fill(dst, rng)
		return
	}
	rank := g.zipf.Uint64()
	if g.hot[rank] == nil {
		p := make([]byte, len(dst))
		g.Base.Fill(p, rng)
		g.hot[rank] = p
	}
	copy(dst, g.hot[rank])
	if g.FlipBits > 0 {
		for k := rng.Intn(g.FlipBits + 1); k > 0; k-- {
			bit := rng.Intn(len(dst) * 8)
			dst[bit/8] ^= 1 << (bit % 8)
		}
	}
}
