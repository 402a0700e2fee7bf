package bus

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/core"
)

// batchPayload builds n txnBytes-sized transactions with repeats and zero
// runs mixed in, so boundary toggles see equal neighbours too.
func batchPayload(rng *rand.Rand, n, txnBytes int) []byte {
	p := make([]byte, n*txnBytes)
	rng.Read(p)
	for i := 1; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // repeat the previous transaction
			copy(p[i*txnBytes:(i+1)*txnBytes], p[(i-1)*txnBytes:i*txnBytes])
		case 1: // zero run
			for j := i * txnBytes; j < (i+1)*txnBytes; j++ {
				p[j] = 0
			}
		}
	}
	return p
}

// TestTransferBatchMatchesTransfer is the load-bearing check for the fused
// batch accounting: across widths, batch shapes, and interleaved single
// transfers, TransferBatch must leave statistics and bus history bit-identical
// to a Transfer call per transaction.
func TestTransferBatchMatchesTransfer(t *testing.T) {
	for _, tc := range []struct{ width, txnBytes int }{
		{32, 32}, {64, 32}, {32, 64}, {64, 64}, {8, 8}, {16, 32},
	} {
		t.Run(fmt.Sprintf("%dbit-%dB", tc.width, tc.txnBytes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xb175))
			ref := New(tc.width)
			fast := New(tc.width)
			for round := 0; round < 50; round++ {
				n := rng.Intn(9) // batches of 0..8 transactions
				p := batchPayload(rng, n, tc.txnBytes)
				if err := fast.TransferBatch(p, tc.txnBytes); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if err := ref.Transfer(mkEncoded(p[i*tc.txnBytes:(i+1)*tc.txnBytes], 0)); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(3) == 0 {
					// An interleaved single transfer must see the batch's
					// final beat as bus history.
					e := randomEncoded(rng, tc.txnBytes/(tc.width/8), tc.width/8, 0)
					if err := ref.Transfer(e); err != nil {
						t.Fatal(err)
					}
					if err := fast.Transfer(e); err != nil {
						t.Fatal(err)
					}
				}
				if rs, fs := ref.Stats(), fast.Stats(); rs != fs {
					t.Fatalf("round %d (batch of %d): stats diverge\nbatch      %+v\nsequential %+v",
						round, n, fs, rs)
				}
			}
		})
	}
}

// TestOnesAndBeatTogglesMatchesReference checks the fused ones+toggles walk
// — including the carried-register 32- and 64-bit specializations and their
// unrolled tails — against the separate core.OnesCount and beatToggles
// passes.
func TestOnesAndBeatTogglesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf00d))
	for _, beatBytes := range []int{1, 2, 4, 8, 16} {
		for _, beats := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
			p := make([]byte, beats*beatBytes)
			for trial := 0; trial < 20; trial++ {
				rng.Read(p)
				if trial%4 == 0 {
					for i := range p {
						p[i] = byte(trial)
					}
				}
				ones, toggles := onesAndBeatToggles(p, beatBytes)
				wantOnes, wantToggles := core.OnesCount(p), beatToggles(p, beatBytes)
				if ones != wantOnes || toggles != wantToggles {
					t.Fatalf("beatBytes %d len %d: fused (%d, %d) != reference (%d, %d) for %x",
						beatBytes, len(p), ones, toggles, wantOnes, wantToggles, p)
				}
			}
		}
	}
}

// TestTransferBatchGeometry verifies shape validation.
func TestTransferBatchGeometry(t *testing.T) {
	b := New(32)
	if err := b.TransferBatch(make([]byte, 64), 30); err == nil {
		t.Error("non-beat-multiple transaction size accepted")
	}
	if err := b.TransferBatch(make([]byte, 40), 32); err == nil {
		t.Error("payload not dividing into transactions accepted")
	}
	if err := b.TransferBatch(nil, 32); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if b.Stats() != (Stats{}) {
		t.Errorf("failed calls charged stats: %+v", b.Stats())
	}
}

// beatToggles is the byte-at-a-time reference for onesAndBeatToggles'
// toggle count: the Hamming distance between p[i] and p[i-beatBytes], summed
// over every position from the second beat on.
func beatToggles(p []byte, beatBytes int) int {
	t := 0
	for i := beatBytes; i < len(p); i++ {
		t += bits.OnesCount8(p[i] ^ p[i-beatBytes])
	}
	return t
}
