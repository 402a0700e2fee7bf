package server

import (
	"bytes"
	"fmt"
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
			ref, err := scheme.New(tc.scheme)
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

// encodeReference is the batch accounting encodeAll must reproduce, built
// from the scheme's batch entry and the bus's own walks: EncodeBatch into
// fresh records, then TransferBatch on the source and TransferRecords on the
// records.
type encodeReference struct {
	batch          core.BatchEncoder
	base, enc      *bus.Bus
	txnSize, metaN int
}

func newEncodeReference(t testing.TB, name string, txnSize, width int) *encodeReference {
	t.Helper()
	codec, err := scheme.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return &encodeReference{scheme.BatchEncoder(codec), bus.New(width), bus.New(width), txnSize, codec.MetaBits(txnSize)}
}

// run encodes n transactions of data, returning the reply records.
func (r *encodeReference) run(n int, data []byte) ([]byte, error) {
	dst := make([]core.Encoded, n)
	if err := r.batch.EncodeBatch(dst, data, n, r.txnSize); err != nil {
		return nil, err
	}
	var recs []byte
	for i := range dst {
		recs = append(recs, dst[i].Data...)
		recs = append(recs, dst[i].Meta...)
	}
	if err := r.base.TransferBatch(data, r.txnSize); err != nil {
		return nil, err
	}
	if err := r.enc.TransferRecords(recs, r.txnSize, r.metaN); err != nil {
		return nil, err
	}
	return recs, nil
}

// checkEncodeAll runs one batch through st.encodeAll and through ref and
// compares the reply records, both buses' statistics, and the wire state
// each bus carries into the next batch.
func checkEncodeAll(t testing.TB, st *stream, ref *encodeReference, n int, data []byte) {
	t.Helper()
	want, err := ref.run(n, data)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got := make([]byte, n*st.recLen())
	if err := st.encodeAll(got, n, data, st.baseBus, st.encBus, st.ss.blockScratch()); err != nil {
		t.Fatalf("encodeAll(%d txns): %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d txns: records diverge from EncodeBatch's", n)
	}
	for _, side := range []struct {
		name     string
		got, ref *bus.Bus
	}{{"baseline", st.baseBus, ref.base}, {"encoded", st.encBus, ref.enc}} {
		if g, w := side.got.Stats(), side.ref.Stats(); g != w {
			t.Fatalf("%d txns: %s bus stats diverge\nentry     %+v\nreference %+v", n, side.name, g, w)
		}
		var g, w bytes.Buffer
		if err := side.got.Snapshot(&g); err != nil {
			t.Fatal(err)
		}
		if err := side.ref.Snapshot(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%d txns: %s bus wire state diverges", n, side.name)
		}
	}
}

// encodeBatchKinds builds one batch of n transactions of each payload kind
// the differential covers: all zero, random, one repeated 4-byte element,
// and duplicate-heavy, where transaction 64 always repeats 63 so a duplicate
// straddles the block adapter's first block boundary.
func encodeBatchKinds(rng *rand.Rand, n, txnSize int) map[string][]byte {
	random := make([]byte, n*txnSize)
	rng.Read(random)
	repeated := make([]byte, n*txnSize)
	elem := rng.Uint32()
	for off := 0; off+4 <= len(repeated); off += 4 {
		repeated[off], repeated[off+1], repeated[off+2], repeated[off+3] = byte(elem), byte(elem>>8), byte(elem>>16), byte(elem>>24)
	}
	dups := make([]byte, n*txnSize)
	rng.Read(dups)
	for i := 1; i < n; i++ {
		if i == batchBlockTxns || rng.Intn(4) != 0 {
			copy(dups[i*txnSize:(i+1)*txnSize], dups[(i-1)*txnSize:i*txnSize])
		}
	}
	return map[string][]byte{"zero": make([]byte, n*txnSize), "random": random, "repeated": repeated, "dups": dups}
}

// TestEncodeAllMatchesBatchAccounting is the differential for the stream's
// one encode entry: for every registered scheme, at 32- and 64-byte
// transactions, on a 32-bit and a 64-bit channel (where universal's 32-byte
// streams run its encode-and-count kernel) and a 128-bit one (where every
// stream runs the block adapter), encodeAll's records, bus statistics and carried wire
// state match EncodeBatch followed by TransferBatch and TransferRecords,
// batch after batch.
func TestEncodeAllMatchesBatchAccounting(t *testing.T) {
	for _, name := range scheme.Names() {
		for _, txnSize := range []int{32, 64} {
			for _, width := range []int{32, 64, 128} {
				t.Run(fmt.Sprintf("%s/%dB/%d", name, txnSize, width), func(t *testing.T) {
					cfg := testConfig()
					cfg.ChannelWidthBits = width
					st := newConfigStream(t, cfg, name, txnSize)
					if fused := st.tally != nil; fused != (name == "universal" && txnSize == 32 && width != 128) {
						t.Fatalf("encode-and-count kernel in use: %v", fused)
					}
					ref := newEncodeReference(t, name, txnSize, width)
					rng := rand.New(rand.NewSource(int64(width)))
					for _, n := range []int{1, 2, 63, batchBlockTxns + 1, 300} {
						kinds := encodeBatchKinds(rng, n, txnSize)
						for _, kind := range []string{"zero", "random", "repeated", "dups"} {
							checkEncodeAll(t, st, ref, n, kinds[kind])
						}
					}
				})
			}
		}
	}
}

// FuzzEncodeAll drives arbitrary batches through encodeAll and the reference
// accounting on one scheme and channel width picked by the input, two
// batches in a row so the carried wire state is compared too.
func FuzzEncodeAll(f *testing.F) {
	names := scheme.Names()
	f.Add(uint8(0), uint8(0), uint16(3), []byte("0123456789abcdef0123456789abcdef"))
	f.Add(uint8(1), uint8(1), uint16(70), make([]byte, 64))
	f.Fuzz(func(t *testing.T, pick, widthPick uint8, nPick uint16, seed []byte) {
		name := names[int(pick)%len(names)]
		width := []int{32, 64, 128}[int(widthPick)%3]
		n := 1 + int(nPick)%300
		data := make([]byte, n*32)
		if len(seed) > 0 {
			for i := range data {
				data[i] = seed[i%len(seed)]
			}
		}
		cfg := testConfig()
		cfg.ChannelWidthBits = width
		st := newConfigStream(t, cfg, name, 32)
		ref := newEncodeReference(t, name, 32, width)
		checkEncodeAll(t, st, ref, n, data)
		checkEncodeAll(t, st, ref, n, data)
	})
}
