package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
)

// The batch section measures the gateway's encode stage — codec dispatch
// plus wire-activity accounting on both the raw and encoded sides — at batch
// granularity against the per-transaction dispatch it replaced. The batch
// path resolves the kernel plan once, skips the encode walk for consecutive
// duplicates, and collapses the per-beat accounting state machine into
// streaming TransferBatch passes, so its advantage grows with batch size and
// with the duplicate density of the workload.

// batchSchemes are the natively batched codecs the section sweeps.
var batchSchemes = []string{"2b", "4b", "8b", "universal"}

// batchSizes are the txns-per-batch points, bracketing the gateway's
// production batch (256) with two smaller sizes.
var batchSizes = []int{16, 64, 256}

// batchStat is one measured dispatch style over a whole batch.
type batchStat struct {
	NsPerTxn    float64 `json:"ns_per_txn"`
	GBPerSec    float64 `json:"gb_per_s"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// batchResult compares batch-granular encoding against per-txn dispatch for
// one scheme at one batch geometry.
type batchResult struct {
	Scheme     string    `json:"scheme"`
	TxnBytes   int       `json:"txn_bytes"`
	BatchTxns  int       `json:"batch_txns"`
	Sequential batchStat `json:"sequential"`
	Batch      batchStat `json:"batch"`
	Speedup    float64   `json:"speedup"`
	ReusePct   float64   `json:"reuse_pct"`
}

// batchSrc builds a contiguous batch with the duplicate density of real
// request streams: roughly half the transactions repeat the previous one
// (adjacent requests hitting the same hot line), the rest rotate through the
// usual random/zero/repeated-element mix.
func batchSrc(rng *rand.Rand, batchTxns, txnBytes int) []byte {
	src := make([]byte, batchTxns*txnBytes)
	for i := 0; i < batchTxns; i++ {
		w := src[i*txnBytes : (i+1)*txnBytes]
		if i > 0 && rng.Intn(2) == 0 {
			copy(w, src[(i-1)*txnBytes:i*txnBytes])
			continue
		}
		copy(w, benchPayload(rng, txnBytes))
	}
	return src
}

// benchBatch measures one scheme through the gateway's encode stage —
// codec dispatch plus raw- and encoded-side wire-activity accounting on the
// serving channel width — first transaction by transaction (the pre-batch
// serving path: Encode, then a bus Transfer per side per record), then
// batch-granular (EncodeBatch into one contiguous record buffer, then one
// TransferBatch per side). Both run the same transactions and accumulate
// bit-identical bus statistics; only the dispatch granularity differs.
func benchBatch(name string, txnBytes, batchTxns int) (batchResult, error) {
	res := batchResult{Scheme: name, TxnBytes: txnBytes, BatchTxns: batchTxns}
	src := batchSrc(rand.New(rand.NewSource(int64(17*batchTxns+txnBytes))), batchTxns, txnBytes)
	batchBytes := int64(len(src))
	width := config.DefaultServer().ChannelWidthBits

	seqC, err := scheme.New(name)
	if err != nil {
		return res, err
	}
	seqDst := make([]core.Encoded, batchTxns)
	seqBase, seqEnc := bus.New(width), bus.New(width)
	var raw core.Encoded
	seqR := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(batchBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batchTxns; j++ {
				w := src[j*txnBytes : (j+1)*txnBytes]
				if err := seqC.Encode(&seqDst[j], w); err != nil {
					b.Fatal(err)
				}
				raw.Data = w
				if err := seqBase.Transfer(&raw); err != nil {
					b.Fatal(err)
				}
				if err := seqEnc.Transfer(&seqDst[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	res.Sequential = toBatchStat(seqR, batchTxns)

	batC, err := scheme.New(name)
	if err != nil {
		return res, err
	}
	be := scheme.BatchEncoder(batC)
	// Records pre-point at adjacent windows of one backing buffer, so the
	// encoded batch is contiguous and feeds TransferBatch directly — the
	// same layout the serving session uses.
	recBuf := make([]byte, batchTxns*txnBytes)
	dst := make([]core.Encoded, batchTxns)
	for i := range dst {
		dst[i].Data = recBuf[i*txnBytes : (i+1)*txnBytes : (i+1)*txnBytes]
	}
	batBase, batEnc := bus.New(width), bus.New(width)
	batR := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(batchBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := be.EncodeBatch(dst, src, batchTxns, txnBytes); err != nil {
				b.Fatal(err)
			}
			if err := batBase.TransferBatch(src, txnBytes); err != nil {
				b.Fatal(err)
			}
			if err := batEnc.TransferBatch(recBuf, txnBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.Batch = toBatchStat(batR, batchTxns)

	// The two paths must have produced identical records; a divergence
	// means the benchmark compared different work.
	for i := range dst {
		if !bytes.Equal(dst[i].Data, seqDst[i].Data) {
			return res, fmt.Errorf("batch %s: record %d diverges from sequential dispatch", name, i)
		}
	}

	if res.Batch.NsPerTxn > 0 {
		res.Speedup = res.Sequential.NsPerTxn / res.Batch.NsPerTxn
	}
	if br, ok := batC.(core.BatchReuser); ok {
		if hits, txns := br.BatchReuse(); txns > 0 {
			res.ReusePct = 100 * float64(hits) / float64(txns)
		}
	}
	return res, nil
}

func toBatchStat(r testing.BenchmarkResult, batchTxns int) batchStat {
	gbs := 0.0
	if sec := r.T.Seconds(); sec > 0 {
		gbs = float64(r.Bytes) * float64(r.N) / 1e9 / sec
	}
	return batchStat{
		NsPerTxn:    float64(r.T.Nanoseconds()) / float64(r.N) / float64(batchTxns),
		GBPerSec:    gbs,
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// runBatchBench sweeps the batch section and logs one line per point.
func runBatchBench() ([]batchResult, error) {
	var out []batchResult
	for _, name := range batchSchemes {
		for _, n := range batchSizes {
			r, err := benchBatch(name, 32, n)
			if err != nil {
				return nil, fmt.Errorf("batch %s/%dx32B: %w", name, n, err)
			}
			fmt.Fprintf(os.Stderr, "batch %-10s %3dx32B  seq %6.1f ns/txn  batch %6.1f ns/txn %6.2f GB/s  %4.2fx  reuse %4.1f%%  %d allocs\n",
				name, n, r.Sequential.NsPerTxn, r.Batch.NsPerTxn, r.Batch.GBPerSec,
				r.Speedup, r.ReusePct, r.Batch.AllocsPerOp)
			out = append(out, r)
		}
	}
	return out, nil
}

// trajectoryEntry is one timestamped snapshot in BENCH_trajectory.json — the
// commit-over-commit record of the batch and pipeline headline numbers.
type trajectoryEntry struct {
	Time     string           `json:"time"`
	Go       string           `json:"go"`
	Batch    []batchResult    `json:"batch"`
	Pipeline []pipelineResult `json:"server_pipeline"`
	Mux      []muxResult      `json:"mux_pipeline,omitempty"`
}

// trajectoryPath places BENCH_trajectory.json next to the codec report.
func trajectoryPath(codecPath string) string {
	return filepath.Join(filepath.Dir(codecPath), "BENCH_trajectory.json")
}

func nowStamp() string { return time.Now().UTC().Format(time.RFC3339) }
