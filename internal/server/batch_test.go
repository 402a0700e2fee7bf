package server

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/trace"
)

// dupTxns builds a makeTxns stream with consecutive duplicates spliced in so
// the batch path's delta-base reuse fires.
func dupTxns(rng *rand.Rand, n, txnSize int) []trace.Transaction {
	txns := makeTxns(rng, n, txnSize)
	for i := 1; i < n; i++ {
		if rng.Intn(3) == 0 {
			copy(txns[i].Data, txns[i-1].Data)
		}
	}
	return txns
}

// TestBatchPathMatchesSequential is the serving-side differential for the
// block encode path: processBatch (EncodeBatch, settle, block
// accounting) must reply byte for byte what a reference built here from the
// scheme's per-transaction Encode and one bus.Transfer per transaction on two
// fresh buses would, and leave both buses with bit-identical statistics.
// It covers metadata-free and metadata-carrying schemes, batch sizes
// straddling the blocking factor, duplicate-heavy streams, and a 64-byte
// transaction size.
func TestBatchPathMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name, scheme string
		txnSize      int
	}{
		{"universal", "universal", 32},
		{"basexor", "basexor", 32},
		{"2b", "2b", 32},
		{"8b", "8b", 32},
		{"silent", "silent", 32},
		{"bdenc", "bdenc", 32},
		{"dbi1", "dbi1", 32},
		{"dbi4", "dbi4", 32},
		{"fve", "fve", 32},
		{"universal+dbi1", "universal+dbi1", 32},
		{"bdenc-64B", "bdenc", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newBenchStream(t, tc.scheme, tc.txnSize)
			srv := st.ss.srv
			ref, err := scheme.Build(tc.scheme, srv.cfg.SchemeOptions())
			if err != nil {
				t.Fatal(err)
			}
			width := srv.cfg.ChannelWidthBits
			refBase, refEnc := bus.New(width), bus.New(width)
			var prevBase, prevEnc bus.Stats
			var enc core.Encoded
			rng := rand.New(rand.NewSource(23))
			var id uint64
			for _, n := range []int{1, 7, batchBlockTxns, batchBlockTxns + 1, 200} {
				id++
				txns := dupTxns(rng, n, tc.txnSize)
				var recs []byte
				for i := range txns {
					if err := ref.Encode(&enc, txns[i].Data); err != nil {
						t.Fatalf("reference Encode: %v", err)
					}
					recs = append(recs, enc.Data...)
					recs = append(recs, enc.Meta...)
					if err := refBase.Transfer(&core.Encoded{Data: txns[i].Data}); err != nil {
						t.Fatal(err)
					}
					if err := refEnc.Transfer(&enc); err != nil {
						t.Fatal(err)
					}
				}
				baseNow, encNow := refBase.Stats(), refEnc.Stats()
				baseDelta, encDelta := baseNow.Sub(prevBase), encNow.Sub(prevEnc)
				prevBase, prevEnc = baseNow, encNow
				want := trace.AppendStreamID(nil, st.sid)
				want = trace.AppendTraceEnvelope(want, id, 0)
				want = trace.AppendBatchStats(want, trace.BatchStats{
					Transactions:  uint32(n),
					DataBits:      uint64(baseDelta.DataBits),
					OnesBefore:    uint64(baseDelta.Ones()),
					OnesAfter:     uint64(encDelta.Ones()),
					TogglesBefore: uint64(baseDelta.Toggles()),
					TogglesAfter:  uint64(encDelta.Toggles()),
					BaselinePJ:    srv.model.Estimate(baseDelta).Total() * 1e12,
					EncodedPJ:     srv.model.Estimate(encDelta).Total() * 1e12,
				})
				want = append(want, recs...)
				if err := trace.SealBatchEnvelope(want[4:]); err != nil {
					t.Fatal(err)
				}

				got, err := st.processBatch(id, txns)
				if err != nil {
					t.Fatalf("processBatch(%d txns): %v", n, err)
				}
				if !bytes.Equal(got[trace.FrameHeaderBytes:], want) {
					t.Fatalf("%d txns: reply diverges from the per-transaction reference", n)
				}
				if got, want := st.baseBus.Stats(), refBase.Stats(); got != want {
					t.Fatalf("%d txns: raw-side bus stats diverge\nblock     %+v\nreference %+v", n, got, want)
				}
				if got, want := st.encBus.Stats(), refEnc.Stats(); got != want {
					t.Fatalf("%d txns: encoded-side bus stats diverge\nblock     %+v\nreference %+v", n, got, want)
				}
			}
		})
	}
}

// batchData is processBatch's data block, reused so that a batch run
// through it allocates nothing once warm.
var batchData []byte

// processBatch runs txns through serveBatch as a Batch frame brings them to
// bxtd: their payloads back to back in one data block.
func (st *stream) processBatch(id uint64, txns []trace.Transaction) ([]byte, error) {
	batchData = batchData[:0]
	for i := range txns {
		batchData = append(batchData, txns[i].Data...)
	}
	return st.serveBatch(id, len(txns), batchData)
}
