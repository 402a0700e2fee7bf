package server

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEncodeAll times a universal stream's encode entry alone, with no
// network or framing: the one-pass encode-and-count kernel ("fused")
// against the block adapter the same stream runs without it ("adapter"), on
// batches shaped like the end-to-end benchmark's pool: random, zero and
// repeated-element payloads in equal parts, half of them repeating their
// predecessor.
func BenchmarkEncodeAll(b *testing.B) {
	for _, n := range []int{64, 256} {
		for _, mode := range []string{"fused", "adapter"} {
			b.Run(fmt.Sprintf("%s/%d", mode, n), func(b *testing.B) {
				st := newBenchStream(b, "universal", 32)
				if mode == "adapter" {
					st.tally = nil
				}
				data := poolBatch(rand.New(rand.NewSource(5)), n, 32)
				recs := make([]byte, n*st.recLen())
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := st.encodeAll(recs, n, data, st.baseBus, st.encBus, st.ss.blockScratch()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// poolBatch builds n transactions of txnSize bytes: random, zero and
// repeated 4-byte-element payloads in turn, each repeating its predecessor
// with probability one half.
func poolBatch(rng *rand.Rand, n, txnSize int) []byte {
	data := make([]byte, n*txnSize)
	for i := 0; i < n; i++ {
		w := data[i*txnSize : (i+1)*txnSize]
		switch {
		case i > 0 && rng.Intn(2) == 0:
			copy(w, data[(i-1)*txnSize:i*txnSize])
		case i%3 == 0:
			rng.Read(w)
		case i%3 == 2:
			e := byte(rng.Intn(256))
			for j := 0; j < len(w); j += 4 {
				w[j] = e
			}
		}
	}
	return data
}
