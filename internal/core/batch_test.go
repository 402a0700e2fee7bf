package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/testutil"
)

// EncodeBatch's contract is byte-identical output to n sequential Encode
// calls on a fresh codec — the mega-kernel may amortize plan resolution and
// reuse previous records, but never change a single output byte. These tests
// drive the batch and sequential paths of identically configured codecs over
// the same windows and compare record-for-record.

// batchCodecs returns a fresh (batch, sequential) twin pair for every
// natively batched configuration.
func batchCodecs() []struct{ batch, seq Codec } {
	mk := func() []Codec {
		return []Codec{
			NewBaseXOR(2), NewBaseXOR(4), NewBaseXOR(8),
			&BaseXOR{BaseSize: 4, ZDR: true, ZDRConst: []byte{0xde, 0xad, 0xbe, 0xef}},
			&BaseXOR{BaseSize: 4, ZDR: true, Mode: FixedBase},
			&BaseXOR{BaseSize: 8},
			&BaseXOR{BaseSize: 16, ZDR: true},
			NewSILENT(4),
			NewUniversal(3),
			&Universal{Stages: 4, ZDR: true},
			&Universal{Stages: 1},
			NewOracleBase(),
		}
	}
	a, b := mk(), mk()
	out := make([]struct{ batch, seq Codec }, len(a))
	for i := range a {
		out[i].batch, out[i].seq = a[i], b[i]
	}
	return out
}

// dupBatch builds a contiguous batch from the structured payload set, with
// consecutive duplicates spliced in so the delta-base fast path fires.
func dupBatch(rng *rand.Rand, n, txnBytes, elem int) []byte {
	var src []byte
	pool := testutil.Payloads(rng, txnBytes, elem, DefaultZDRConst(elem))
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			src = append(src, src[(i-1)*txnBytes:i*txnBytes]...)
			continue
		}
		src = append(src, pool[rng.Intn(len(pool))]...)
	}
	return src
}

// checkBatchMatches encodes src both ways and fails on any diverging record.
func checkBatchMatches(t *testing.T, batch, seq Codec, src []byte, n, txnBytes int) {
	t.Helper()
	be, ok := batch.(BatchEncoder)
	if !ok {
		t.Fatalf("%s does not implement BatchEncoder", batch.Name())
	}
	dst := make([]Encoded, n)
	if err := be.EncodeBatch(dst, src, n, txnBytes); err != nil {
		t.Fatalf("%s: EncodeBatch: %v", batch.Name(), err)
	}
	var want Encoded
	for i := 0; i < n; i++ {
		w := src[i*txnBytes : (i+1)*txnBytes]
		if err := seq.Encode(&want, w); err != nil {
			t.Fatalf("%s: sequential encode %d: %v", seq.Name(), i, err)
		}
		if !bytes.Equal(dst[i].Data, want.Data) {
			t.Fatalf("%s: record %d data diverges for %x:\nbatch      %x\nsequential %x",
				batch.Name(), i, w, dst[i].Data, want.Data)
		}
		if !bytes.Equal(dst[i].Meta, want.Meta) {
			t.Fatalf("%s: record %d meta diverges for %x:\nbatch      %x\nsequential %x",
				batch.Name(), i, w, dst[i].Meta, want.Meta)
		}
	}
}

// TestEncodeBatchMatchesSequential sweeps every natively batched codec across
// transaction sizes and batch lengths, on duplicate-heavy structured input.
func TestEncodeBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xba7c4))
	for _, pair := range batchCodecs() {
		for _, txnBytes := range []int{32, 64} {
			for _, n := range []int{1, 2, 16, 64} {
				name := fmt.Sprintf("%s/n%d/%dB", pair.batch.Name(), n, txnBytes)
				t.Run(name, func(t *testing.T) {
					pair.batch.Reset()
					pair.seq.Reset()
					src := dupBatch(rng, n, txnBytes, 4)
					checkBatchMatches(t, pair.batch, pair.seq, src, n, txnBytes)
				})
			}
		}
	}
}

// TestEncodeBatchShape pins the geometry validation shared through
// CheckBatch: short dst, mismatched src length, and bad counts must error,
// and n == 0 must be a no-op.
func TestEncodeBatchShape(t *testing.T) {
	c := NewBaseXOR(4)
	src := make([]byte, 64)
	if err := c.EncodeBatch(make([]Encoded, 1), src, 2, 32); err == nil {
		t.Error("short dst accepted")
	}
	if err := c.EncodeBatch(make([]Encoded, 2), src[:48], 2, 32); err == nil {
		t.Error("truncated src accepted")
	}
	if err := c.EncodeBatch(make([]Encoded, 2), src, -1, 32); err == nil {
		t.Error("negative count accepted")
	}
	if err := c.EncodeBatch(make([]Encoded, 2), src, 2, 0); err == nil {
		t.Error("zero txnBytes accepted")
	}
	if err := c.EncodeBatch(nil, nil, 0, 32); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestBatchReuseCounters verifies the observability counters: an all-identical
// batch reuses every record after the first, a batch of distinct transactions
// reuses none, and the counters accumulate across calls and survive Reset.
func TestBatchReuseCounters(t *testing.T) {
	for _, c := range []Codec{NewBaseXOR(4), NewUniversal(3), NewOracleBase()} {
		t.Run(c.Name(), func(t *testing.T) {
			be := c.(BatchEncoder)
			br := c.(BatchReuser)
			same := bytes.Repeat([]byte{0x5a, 1, 2, 3}, 32) // 4 identical 32B txns
			dst := make([]Encoded, 4)
			if err := be.EncodeBatch(dst, same, 4, 32); err != nil {
				t.Fatal(err)
			}
			hits, txns := br.BatchReuse()
			if hits != 3 || txns != 4 {
				t.Fatalf("identical batch: reuse %d/%d, want 3/4", hits, txns)
			}
			distinct := make([]byte, 4*32)
			for i := range distinct {
				distinct[i] = byte(i * 7)
			}
			if err := be.EncodeBatch(dst, distinct, 4, 32); err != nil {
				t.Fatal(err)
			}
			hits, txns = br.BatchReuse()
			if hits != 3 || txns != 8 {
				t.Fatalf("after distinct batch: reuse %d/%d, want 3/8", hits, txns)
			}
			c.Reset()
			if hits, txns = br.BatchReuse(); hits != 3 || txns != 8 {
				t.Fatalf("Reset cleared reuse counters: %d/%d, want 3/8", hits, txns)
			}
		})
	}
}

// TestEncodeBatchZeroAlloc pins the steady-state allocation contract of the
// batch hot path: once the destination records are grown, EncodeBatch must
// not allocate.
func TestEncodeBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(0xa110c))
	src := dupBatch(rng, 64, 32, 4)
	for _, pair := range batchCodecs() {
		c := pair.batch
		t.Run(c.Name(), func(t *testing.T) {
			be := c.(BatchEncoder)
			dst := make([]Encoded, 64)
			if err := be.EncodeBatch(dst, src, 64, 32); err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(50, func() {
				if err := be.EncodeBatch(dst, src, 64, 32); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("EncodeBatch allocates %.1f times per batch, want 0", avg)
			}
		})
	}
}

// FuzzEncodeBatchDifferential lets the fuzzer hunt for batches where the
// mega-kernel and sequential dispatch disagree on any record.
func FuzzEncodeBatchDifferential(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		const txnBytes = 32
		n := len(data) / txnBytes
		if n == 0 {
			return
		}
		if n > 8 {
			n = 8
		}
		src := data[: n*txnBytes : n*txnBytes]
		for _, pair := range batchCodecs() {
			be, ok := pair.batch.(BatchEncoder)
			if !ok {
				continue
			}
			dst := make([]Encoded, n)
			if err := be.EncodeBatch(dst, src, n, txnBytes); err != nil {
				t.Fatal(err)
			}
			var want Encoded
			for i := 0; i < n; i++ {
				w := src[i*txnBytes : (i+1)*txnBytes]
				if err := pair.seq.Encode(&want, w); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst[i].Data, want.Data) || !bytes.Equal(dst[i].Meta, want.Meta) {
					t.Fatalf("%s: batch record %d diverges for %x", pair.batch.Name(), i, w)
				}
			}
		}
	})
}

// naiveTally counts p's 1 values and the toggles between its consecutive
// beatBytes-byte beats, a byte at a time.
func naiveTally(p []byte, beatBytes int) (ones, toggles int) {
	for i, b := range p {
		ones += bits.OnesCount8(b)
		if i >= beatBytes {
			toggles += bits.OnesCount8(b ^ p[i-beatBytes])
		}
	}
	return ones, toggles
}

// TestEncodeTallyMatchesEncodeBatch pins EncodeTally's contract for every
// codec that has it: records byte-identical to EncodeBatch's twin, counts
// equal to a byte-wise walk of the source and the records, and the same
// BatchReuse movement, on 4- and 8-byte beats.
func TestEncodeTallyMatchesEncodeBatch(t *testing.T) {
	type tallyCodec interface {
		Codec
		BatchEncoder
		BatchReuser
		Tallies(txnBytes, beatBytes int) bool
		EncodeTally(out, src []byte, n, txnBytes, beatBytes int) (Tally, error)
	}
	const txnBytes = 32
	rng := rand.New(rand.NewSource(0x7a11))
	served := 0
	for _, pair := range batchCodecs() {
		c, ok := pair.batch.(tallyCodec)
		if !ok {
			continue
		}
		twin := pair.seq.(tallyCodec)
		for _, beatBytes := range []int{4, 8} {
			if !c.Tallies(txnBytes, beatBytes) {
				continue
			}
			served++
			t.Run(fmt.Sprintf("%s/beat%d", c.Name(), beatBytes), func(t *testing.T) {
				for _, n := range []int{0, 1, 2, 16, 65, 130} {
					src := dupBatch(rng, n, txnBytes, 4)
					out := make([]byte, len(src))
					h0, n0 := c.BatchReuse()
					got, err := c.EncodeTally(out, src, n, txnBytes, beatBytes)
					if err != nil {
						t.Fatal(err)
					}
					h1, n1 := twin.BatchReuse()
					dst := make([]Encoded, n)
					if err := twin.EncodeBatch(dst, src, n, txnBytes); err != nil {
						t.Fatal(err)
					}
					var want []byte
					for i := range dst {
						want = append(want, dst[i].Data...)
					}
					if !bytes.Equal(out, want) {
						t.Fatalf("n=%d: records diverge from EncodeBatch's", n)
					}
					var ref Tally
					ref.SrcOnes, ref.SrcToggles = naiveTally(src, beatBytes)
					ref.EncOnes, ref.EncToggles = naiveTally(want, beatBytes)
					if got != ref {
						t.Fatalf("n=%d: tally %+v, byte-wise walk %+v", n, got, ref)
					}
					h2, n2 := c.BatchReuse()
					h3, n3 := twin.BatchReuse()
					if h2-h0 != h3-h1 || n2-n0 != n3-n1 {
						t.Fatalf("n=%d: reuse moved %d/%d, EncodeBatch's %d/%d", n, h2-h0, n2-n0, h3-h1, n3-n1)
					}
				}
			})
		}
	}
	if served == 0 {
		t.Fatal("no codec serves the encode-and-count entry")
	}
}

// TestEncodeTallyGeometry pins what EncodeTally refuses: beats other than 4
// or 8 bytes, any shape but the 32-byte / 3-stage register kernel's, and
// mis-sized buffers. The refusal is Tallies' answer too.
func TestEncodeTallyGeometry(t *testing.T) {
	for _, g := range []struct{ stages, txnBytes, beatBytes int }{
		{3, 32, 2}, {3, 32, 16}, {3, 64, 4}, {3, 12, 4}, {3, 0, 4}, {2, 32, 4},
	} {
		c := NewUniversal(g.stages)
		if c.Tallies(g.txnBytes, g.beatBytes) {
			t.Errorf("%d stages serve %d-byte transactions on %d-byte beats", g.stages, g.txnBytes, g.beatBytes)
		}
		src := make([]byte, 2*g.txnBytes)
		if _, err := c.EncodeTally(src, src, 2, g.txnBytes, g.beatBytes); !errors.Is(err, ErrBadLength) {
			t.Errorf("%d stages, %d-byte transactions on %d-byte beats: err %v, want ErrBadLength", g.stages, g.txnBytes, g.beatBytes, err)
		}
	}
	c := NewUniversal(3)
	src := make([]byte, 64)
	if _, err := c.EncodeTally(make([]byte, 32), src, 2, 32, 4); err == nil {
		t.Error("short record area accepted")
	}
	if _, err := c.EncodeTally(make([]byte, 64), src, 3, 32, 4); err == nil {
		t.Error("truncated source accepted")
	}
	out := make([]byte, 64)
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := c.EncodeTally(out, src, 2, 32, 4); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("EncodeTally allocates %.1f times per batch, want 0", avg)
	}
}
