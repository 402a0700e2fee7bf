package workload

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
)

// fillStream drives g for n transactions of size txnBytes from seed.
func fillStream(g Generator, n, txnBytes int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, txnBytes)
		g.Fill(out[i], rng)
	}
	return out
}

func TestHotSetDeterministic(t *testing.T) {
	mk := func() *HotSet {
		return &HotSet{Base: Random{}, Keys: 32, S: 1.3, RepeatProb: 0.8, FlipBits: 4}
	}
	a := fillStream(mk(), 2000, 32, 7)
	b := fillStream(mk(), 2000, 32, 7)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("transaction %d differs between identically seeded runs", i)
		}
	}
}

// hamming returns the bit distance between two equal-length payloads.
func hamming(a, b []byte) int {
	d := 0
	for i := range a {
		d += bits.OnesCount8(a[i] ^ b[i])
	}
	return d
}

// TestHotSetRepeats checks the knobs do what they say: with RepeatProb=1
// and FlipBits=0 every transaction is an exact copy of a hot payload, and
// with FlipBits=k every transaction is within k bits of one.
func TestHotSetRepeats(t *testing.T) {
	const keys, n, txnBytes = 16, 1000, 32
	for _, flip := range []int{0, 6} {
		g := &HotSet{Base: Random{}, Keys: keys, S: 1.5, RepeatProb: 1, FlipBits: flip}
		stream := fillStream(g, n, txnBytes, 11)
		if len(g.hot) != keys {
			t.Fatalf("flip=%d: hot set has %d slots, want %d", flip, len(g.hot), keys)
		}
		for i, p := range stream {
			best := txnBytes*8 + 1
			for _, h := range g.hot {
				if h == nil {
					continue
				}
				if d := hamming(p, h); d < best {
					best = d
				}
			}
			if best > flip {
				t.Fatalf("flip=%d: transaction %d is %d bits from the nearest hot payload", flip, i, best)
			}
		}
	}
}

// TestHotSetSkew checks the Zipf shape: the hottest rank must dominate, and
// novel traffic must appear at the configured rate.
func TestHotSetSkew(t *testing.T) {
	const keys, n, txnBytes = 64, 20000, 32
	g := &HotSet{Base: Random{}, Keys: keys, S: 1.4, RepeatProb: 0.5, FlipBits: 0}
	stream := fillStream(g, n, txnBytes, 3)

	counts := make(map[string]int)
	repeats := 0
	for _, p := range stream {
		for _, h := range g.hot {
			if h != nil && bytes.Equal(p, h) {
				counts[string(h)]++
				repeats++
				break
			}
		}
	}
	frac := float64(repeats) / float64(n)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("repeat fraction %.2f, want ~0.50", frac)
	}
	if g.hot[0] == nil {
		t.Fatal("rank-0 hot payload never materialized")
	}
	top := counts[string(g.hot[0])]
	for rank, h := range g.hot {
		if h == nil || rank == 0 {
			continue
		}
		if c := counts[string(h)]; c > top {
			t.Errorf("rank %d served %d times, more than rank 0's %d", rank, c, top)
		}
	}
	if top < repeats/10 {
		t.Errorf("rank 0 served %d of %d repeats; the Zipf head should dominate", top, repeats)
	}
}

// TestKindCycle checks the payload kinds come in turn: zero, one 4-byte
// element repeated, then random.
func TestKindCycle(t *testing.T) {
	stream := fillStream(&KindCycle{}, 6, 32, 5)
	for i, p := range stream {
		zero := bytes.Equal(p, make([]byte, 32))
		repeated := bytes.Equal(p, bytes.Repeat(p[:4], 8))
		if want := i%3 == 0; zero != want {
			t.Errorf("payload %d: zero = %v, want %v", i, zero, want)
		}
		if want := i%3 != 2; repeated != want {
			t.Errorf("payload %d: repeated element = %v, want %v", i, repeated, want)
		}
	}
}

func TestHotSetDefaults(t *testing.T) {
	// Degenerate knobs (no keys, sub-critical skew) must clamp, not panic.
	g := &HotSet{Base: Random{}, RepeatProb: 1}
	rng := rand.New(rand.NewSource(1))
	dst := make([]byte, 32)
	g.Fill(dst, rng)
	if len(g.hot) != 1 {
		t.Fatalf("hot set has %d slots, want clamped 1", len(g.hot))
	}
}
