package simcache

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/workload"
)

// TestEncoderMatchesInner is the decorator's differential: on hot-set
// traffic full of exact and near repeats, every batch encoded through an
// Encoder must equal, byte for byte, the same batch through the inner
// codec's own EncodeBatch — with near hits patched from their reference, and
// with exact-only lookups — and the cache must hold its structural
// invariants afterwards.
func TestEncoderMatchesInner(t *testing.T) {
	const txnBytes = 32
	for _, tc := range []struct {
		name  string
		patch bool
	}{{"patching", true}, {"exact-only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{TxnBytes: txnBytes, Capacity: 512, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			var patcher core.PatchEncoder
			if tc.patch {
				patcher = core.NewBaseXOR(4)
			}
			enc := NewEncoder(c, core.NewBaseXOR(4), patcher)
			ref := core.NewBaseXOR(4)
			rng := rand.New(rand.NewSource(5))
			hot := &workload.HotSet{Base: &workload.KindCycle{}, Keys: 256, S: 1.2, RepeatProb: 0.9, FlipBits: 6}
			total := 0
			for batch := 0; batch < 200; batch++ {
				n := 1 + rng.Intn(100)
				src := make([]byte, n*txnBytes)
				for i := 0; i < n; i++ {
					hot.Fill(src[i*txnBytes:(i+1)*txnBytes], rng)
				}
				got, want := make([]core.Encoded, n), make([]core.Encoded, n)
				if err := enc.EncodeBatch(got, src, n, txnBytes); err != nil {
					t.Fatal(err)
				}
				if err := ref.EncodeBatch(want, src, n, txnBytes); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if !bytes.Equal(got[i].Data, want[i].Data) || len(got[i].Meta) != 0 || got[i].MetaBits != 0 {
						t.Fatalf("batch %d record %d: decorator encoded %x (meta %d bits), inner %x",
							batch, i, got[i].Data, got[i].MetaBits, want[i].Data)
					}
				}
				total += n
			}
			checkInvariants(t, c)
			st := c.Stats()
			if lookups := st.Hits + st.NearHits + st.Misses; lookups != uint64(total) {
				t.Errorf("%d lookups for %d transactions", lookups, total)
			}
			if st.Hits == 0 || tc.patch != (st.NearHits > 0) {
				t.Errorf("stats %+v: want exact hits, and near hits only when patching", st)
			}
			if d := enc.TakeLookupTime(); d <= 0 {
				t.Errorf("lookup time %v after %d lookups, want > 0", d, total)
			}
			if d := enc.TakeLookupTime(); d != 0 {
				t.Errorf("lookup time %v right after a take, want 0", d)
			}
		})
	}
}

// failingEncoder is an inner encoder whose every call fails.
type failingEncoder struct{}

func (failingEncoder) EncodeBatch([]core.Encoded, []byte, int, int) error {
	return errors.New("inner failed")
}

// TestEncoderInnerError checks that a failed miss encode surfaces the inner
// error and caches none of the batch's misses.
func TestEncoderInnerError(t *testing.T) {
	c, err := New(Config{TxnBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(c, failingEncoder{}, nil)
	dst := make([]core.Encoded, 4)
	if err := enc.EncodeBatch(dst, make([]byte, 4*8), 4, 8); err == nil {
		t.Fatal("inner error was swallowed")
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("%d entries cached from a failed batch", n)
	}
}
