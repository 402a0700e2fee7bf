package bdenc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/core"
)

// checkIndex asserts the exact-match index invariant: where equals the
// index rebuilt from repo[:count].
func checkIndex(t *testing.T, b *BD, step int) {
	t.Helper()
	var want [indexBuckets]uint64
	for i, word := range b.repo[:b.count] {
		want[bucket(word)] |= 1 << uint(i)
	}
	if b.where != want {
		for k := range want {
			if b.where[k] != want[k] {
				t.Fatalf("step %d: index bucket %d = %#016x, rebuilt from repo[:%d] = %#016x",
					step, k, b.where[k], b.count, want[k])
			}
		}
	}
}

// probeWord draws a word of the given kind against b's repository:
// 0 random, 1 a near-duplicate of prev, 2 an exact repeat of a valid
// entry, 3 a different word sharing a valid entry's bucket (so the index
// walk has to reject candidates).
func probeWord(rng *rand.Rand, b *BD, kind int, prev uint64) uint64 {
	switch kind {
	case 1:
		w := prev
		for f := 0; f <= rng.Intn(3); f++ {
			w ^= 1 << uint(rng.Intn(64))
		}
		return w
	case 2:
		if b.count > 0 {
			return b.repo[rng.Intn(b.count)]
		}
	case 3:
		if b.count > 0 {
			target := b.repo[rng.Intn(b.count)]
			for try := 0; try < 4096; try++ {
				if w := rng.Uint64(); w != target && bucket(w) == bucket(target) {
					return w
				}
			}
		}
	}
	return rng.Uint64()
}

// FuzzClosest checks the exact-match index against its definition, under
// the three things that change the repository: Encode (FIFO insert and
// eviction), Reset, and Restore from a Snapshot taken mid-stream, into the
// same codec after it has diverged or into a fresh one. After every step
// the index must equal one rebuilt from repo[:count], and closest must
// answer exactly what the plain core.NearestWord scan does, for random,
// near-duplicate, exact-repeat and bucket-colliding words.
//
//	go test -run '^$' -fuzz FuzzClosest -fuzztime 15s ./internal/bdenc/
func FuzzClosest(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x12, 0x2d, 0x07, 0x09, 0x1b, 0x0f, 0x3a})
	f.Add(int64(2), bytes.Repeat([]byte{0x12, 0x2b, 0x31}, 30))
	f.Add(int64(3), append(bytes.Repeat([]byte{0x09}, 20), 0x07, 0x0a, 0x06, 0x13, 0x0f, 0x11))
	f.Add(int64(4), []byte{0x01, 0x01, 0x0f, 0x16, 0x07})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		rng := rand.New(rand.NewSource(seed))
		b := New()
		var enc core.Encoded
		txn := make([]byte, 4*WordBytes)
		var prev uint64
		for step, op := range ops {
			switch op & 7 {
			case 6:
				b.Reset()
			case 7:
				var buf bytes.Buffer
				if err := b.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if op&8 != 0 {
					b = New()
				} else {
					// Diverge first, so a Restore that kept the index
					// would keep stale bits.
					rng.Read(txn)
					if err := b.Encode(&enc, txn); err != nil {
						t.Fatal(err)
					}
				}
				if err := b.Restore(&buf); err != nil {
					t.Fatal(err)
				}
			default:
				// A transaction of four words whose kinds come from the
				// op's bits, so repeats, near-duplicates and collisions
				// land in the repository as well as random words.
				for w := 0; w < 4; w++ {
					prev = probeWord(rng, b, int(op>>(w+1))&3, prev)
					binary.LittleEndian.PutUint64(txn[w*WordBytes:], prev)
				}
				if err := b.Encode(&enc, txn); err != nil {
					t.Fatal(err)
				}
			}
			checkIndex(t, b, step)
			for kind := 0; kind < 4; kind++ {
				w := probeWord(rng, b, kind, prev)
				gotIdx, gotDist := b.closest(w)
				wantIdx, wantDist := core.NearestWord(w, b.repo[:b.count])
				if gotIdx != wantIdx || gotDist != wantDist {
					t.Fatalf("step %d, %#016x (kind %d): closest (%d, %d) != scan (%d, %d)",
						step, w, kind, gotIdx, gotDist, wantIdx, wantDist)
				}
			}
		}
	})
}

// batchMix returns n 32-byte transactions in the serving benchmark's
// payload mix: half repeat their predecessor, and the rest are random, zero
// and repeated-4-byte-element payloads in equal parts.
func batchMix(rng *rand.Rand, n int) []byte {
	const txnBytes = 32
	src := make([]byte, n*txnBytes)
	for i := 0; i < n; i++ {
		p := src[i*txnBytes : (i+1)*txnBytes]
		switch k := rng.Intn(6); {
		case k == 0:
			rng.Read(p)
		case k == 1:
		case k == 2:
			var elem [4]byte
			rng.Read(elem[:])
			for off := 0; off < txnBytes; off += 4 {
				copy(p[off:], elem[:])
			}
		case i > 0:
			copy(p, src[(i-1)*txnBytes:])
		}
	}
	return src
}

// TestEncodeZeroAlloc pins Encode at zero allocations once its record has
// grown.
func TestEncodeZeroAlloc(t *testing.T) {
	b := New()
	src := batchMix(rand.New(rand.NewSource(5)), 64)
	var enc core.Encoded
	if err := b.Encode(&enc, src[:32]); err != nil {
		t.Fatal(err)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		off := i % 64 * 32
		i++
		if err := b.Encode(&enc, src[off:off+32]); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Encode allocates %.1f times per call", avg)
	}
}

// BenchmarkEncodeBatch encodes 64×32 B batches in the serving benchmark's
// payload mix, one Encode per transaction as the gateway's sequential
// adapter does; ns/op is per batch.
func BenchmarkEncodeBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	batches := make([][]byte, 16)
	for i := range batches {
		batches[i] = batchMix(rng, 64)
	}
	bd := New()
	var enc core.Encoded
	b.SetBytes(64 * 32)
	for i := 0; i < b.N; i++ {
		src := batches[i%len(batches)]
		for off := 0; off < len(src); off += 32 {
			if err := bd.Encode(&enc, src[off:off+32]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
