package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/report"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/trace"
	"github.com/hpca18/bxt/internal/workload"
)

// The -codec mode measures the transcoding hot path itself — not the
// paper's energy results — and emits machine-readable numbers so the
// benchmark trajectory can be tracked commit over commit.

// codecSchemes are the registry names the codec benchmark sweeps. The
// word-kernel families come first; dbi/bdenc/fve cover the accounting-heavy
// baselines.
var codecSchemes = []string{
	"2b", "4b", "8b", "silent", "universal", "universal+dbi1",
	"dbi1", "bdenc", "fve",
}

// pipelineSchemes are benchmarked through the full gateway path.
var pipelineSchemes = []string{"universal", "basexor", "bdenc"}

// benchStat is one measured direction of one configuration.
type benchStat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// codecResult is the encode/decode pair for one scheme at one size.
type codecResult struct {
	Scheme   string    `json:"scheme"`
	TxnBytes int       `json:"txn_bytes"`
	Encode   benchStat `json:"encode"`
	Decode   benchStat `json:"decode"`
}

// pipelineResult is one gateway round trip configuration.
type pipelineResult struct {
	Scheme     string  `json:"scheme"`
	TxnBytes   int     `json:"txn_bytes"`
	BatchTxns  int     `json:"batch_txns"`
	NsPerBatch float64 `json:"ns_per_batch"`
	MBPerSec   float64 `json:"mb_per_s"`
}

// codecReport is the BENCH_codec.json document.
type codecReport struct {
	Go       string           `json:"go"`
	GOOS     string           `json:"goos"`
	GOARCH   string           `json:"goarch"`
	Codecs   []codecResult    `json:"codecs"`
	Batch    []batchResult    `json:"batch"`
	Pipeline []pipelineResult `json:"server_pipeline"`
	Mux      []muxResult      `json:"mux_pipeline"`
}

func toStat(r testing.BenchmarkResult) benchStat {
	mbs := 0.0
	if sec := r.T.Seconds(); sec > 0 {
		mbs = float64(r.Bytes) * float64(r.N) / 1e6 / sec
	}
	return benchStat{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		MBPerSec:    mbs,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchPayload mirrors the workload mix the gateway tests use: random,
// zero, and repeated-element sectors in equal parts.
func benchPayload(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	switch rng.Intn(3) {
	case 0:
		rng.Read(p)
	case 1: // zero
	case 2:
		var elem [4]byte
		rng.Read(elem[:])
		for off := 0; off < n; off += 4 {
			copy(p[off:off+4], elem[:])
		}
	}
	return p
}

func benchCodec(name string, txnBytes int) (codecResult, error) {
	res := codecResult{Scheme: name, TxnBytes: txnBytes}
	mk := func() (core.Codec, error) { return scheme.New(name) }
	if _, err := mk(); err != nil {
		return res, err
	}

	// A fixed rotation of payload shapes, pre-encoded where decode needs it.
	const rotation = 64
	rng := rand.New(rand.NewSource(42))
	srcs := make([][]byte, rotation)
	for i := range srcs {
		srcs[i] = benchPayload(rng, txnBytes)
	}

	encC, _ := mk()
	encR := testing.Benchmark(func(b *testing.B) {
		var enc core.Encoded
		b.SetBytes(int64(txnBytes))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := encC.Encode(&enc, srcs[i%rotation]); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.Encode = toStat(encR)

	// Decode replays records produced by a fresh encoder so stateful
	// schemes (bdenc, fve) see them in encoding order.
	decC, _ := mk()
	encForDec, _ := mk()
	encs := make([]core.Encoded, rotation)
	for i := range encs {
		if err := encForDec.Encode(&encs[i], srcs[i]); err != nil {
			return res, err
		}
	}
	decR := testing.Benchmark(func(b *testing.B) {
		dst := make([]byte, txnBytes)
		b.SetBytes(int64(txnBytes))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%rotation == 0 {
				// Restart both sides so repository state stays aligned
				// with the replayed records.
				b.StopTimer()
				decC.Reset()
				b.StartTimer()
			}
			if err := decC.Decode(dst, &encs[i%rotation]); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.Decode = toStat(decR)
	return res, nil
}

// benchPipeline measures one scheme through an in-process gateway over
// loopback TCP: marshal, frame, encode, bus accounting, reply.
func benchPipeline(schemeName string, txnBytes, batchTxns int) (pipelineResult, error) {
	res := pipelineResult{Scheme: schemeName, TxnBytes: txnBytes, BatchTxns: batchTxns}
	cfg := config.DefaultServer()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.LogLevel = "error"
	srv, err := server.New(cfg)
	if err != nil {
		return res, err
	}
	if err := srv.Start(); err != nil {
		return res, err
	}
	defer srv.Close()

	c, err := client.Dial(srv.Addr(), schemeName, txnBytes)
	if err != nil {
		return res, err
	}
	defer c.Close()

	txns := pipelineBatch(batchTxns, txnBytes)
	r := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(batchTxns * txnBytes))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Transcode(txns); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.NsPerBatch = float64(r.T.Nanoseconds()) / float64(r.N)
	if sec := r.T.Seconds(); sec > 0 {
		res.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / sec
	}
	return res, nil
}

// pipelineBatch prefers real workload sectors, falling back to the
// synthetic mix.
func pipelineBatch(batchTxns, txnBytes int) []trace.Transaction {
	if app, ok := workload.ByName("rodinia-hotspot"); ok && app.TxnBytes == txnBytes {
		if all := app.Trace(); len(all) >= batchTxns {
			return all[:batchTxns]
		}
	}
	rng := rand.New(rand.NewSource(9))
	txns := make([]trace.Transaction, batchTxns)
	for i := range txns {
		txns[i] = trace.Transaction{
			Addr: uint64(i * txnBytes),
			Kind: trace.Read,
			Data: benchPayload(rng, txnBytes),
		}
	}
	return txns
}

// runCodecBench sweeps the codec and pipeline benchmarks and writes the
// JSON report to path (or stdout for "-").
func runCodecBench(path string) error {
	rep := codecReport{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	for _, name := range codecSchemes {
		for _, n := range []int{32, 64} {
			r, err := benchCodec(name, n)
			if err != nil {
				return fmt.Errorf("bench %s/%dB: %w", name, n, err)
			}
			fmt.Fprintf(os.Stderr, "codec %-16s %2dB  encode %8.1f ns/op %8.1f MB/s %d allocs  decode %8.1f ns/op %8.1f MB/s %d allocs\n",
				name, n,
				r.Encode.NsPerOp, r.Encode.MBPerSec, r.Encode.AllocsPerOp,
				r.Decode.NsPerOp, r.Decode.MBPerSec, r.Decode.AllocsPerOp)
			rep.Codecs = append(rep.Codecs, r)
		}
	}
	batch, err := runBatchBench()
	if err != nil {
		return err
	}
	rep.Batch = batch
	for _, name := range pipelineSchemes {
		r, err := benchPipeline(name, 32, 256)
		if err != nil {
			return fmt.Errorf("pipeline %s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "pipeline %-13s 256x32B  %10.0f ns/batch %8.1f MB/s\n",
			name, r.NsPerBatch, r.MBPerSec)
		rep.Pipeline = append(rep.Pipeline, r)
	}
	mux, err := runMuxBench()
	if err != nil {
		return err
	}
	rep.Mux = mux

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	// Each run also appends its headline numbers to the trajectory log, so
	// the batch and pipeline figures can be tracked commit over commit.
	return report.AppendJSON(trajectoryPath(path), trajectoryEntry{
		Time: nowStamp(), Go: rep.Go, Batch: rep.Batch, Pipeline: rep.Pipeline, Mux: rep.Mux,
	})
}
