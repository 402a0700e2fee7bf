package core

import (
	"math/rand"
	"testing"
)

// Codec microbenchmarks at the paper's 32-byte transaction size and at 64
// bytes (a full cache line on the evaluated system). The CI bench smoke
// step and cmd/bxtbench -codec both run these shapes; bench_test.go at the
// repo root keeps the original cross-package trajectory numbers.

func benchPayload(n int) []byte {
	src := make([]byte, n)
	rand.New(rand.NewSource(77)).Read(src)
	return src
}

func benchEncode(b *testing.B, c Codec, n int) {
	src := benchPayload(n)
	var enc Encoded
	if err := c.Encode(&enc, src); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(&enc, src); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecode(b *testing.B, c Codec, n int) {
	src := benchPayload(n)
	var enc Encoded
	if err := c.Encode(&enc, src); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decode(dst, &enc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCodecs pairs each benchmarked configuration with its reference twin
// so the word-kernel speedup is visible in one -bench run.
func benchCodecs() []struct {
	name string
	c    Codec
} {
	return []struct {
		name string
		c    Codec
	}{
		{"basexor4-ref", &BaseXOR{BaseSize: 4, ZDR: true, forceRef: true}},
		{"silent4", NewSILENT(4)},
		{"universal", NewUniversal(3)},
		{"universal-ref", &Universal{Stages: 3, ZDR: true, forceRef: true}},
	}
}

func BenchmarkCodecEncode32(b *testing.B) {
	for _, bc := range benchCodecs() {
		b.Run(bc.name, func(b *testing.B) { benchEncode(b, bc.c, 32) })
	}
}

func BenchmarkCodecDecode32(b *testing.B) {
	for _, bc := range benchCodecs() {
		b.Run(bc.name, func(b *testing.B) { benchDecode(b, bc.c, 32) })
	}
}

func BenchmarkCodecEncode64(b *testing.B) {
	for _, bc := range benchCodecs() {
		b.Run(bc.name, func(b *testing.B) { benchEncode(b, bc.c, 64) })
	}
}

func BenchmarkCodecDecode64(b *testing.B) {
	for _, bc := range benchCodecs() {
		b.Run(bc.name, func(b *testing.B) { benchDecode(b, bc.c, 64) })
	}
}

// batchBenchSrc builds a 64-transaction batch where roughly half the
// transactions repeat their predecessor — the hot-line duplicate density the
// delta-base fast path targets.
func batchBenchSrc(n, txnBytes int) []byte {
	rng := rand.New(rand.NewSource(88))
	src := make([]byte, n*txnBytes)
	rng.Read(src)
	for i := 1; i < n; i++ {
		if rng.Intn(2) == 0 {
			copy(src[i*txnBytes:(i+1)*txnBytes], src[(i-1)*txnBytes:i*txnBytes])
		}
	}
	return src
}

func benchEncodeBatch(b *testing.B, be BatchEncoder, n, txnBytes int) {
	src := batchBenchSrc(n, txnBytes)
	dst := make([]Encoded, n)
	if err := be.EncodeBatch(dst, src, n, txnBytes); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n * txnBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := be.EncodeBatch(dst, src, n, txnBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBatch32 drives the batch mega-kernels over 64 transactions
// of 32 bytes; compare against BenchmarkCodecEncode32 × 64 for the
// per-transaction dispatch cost the batch path amortizes.
func BenchmarkEncodeBatch32(b *testing.B) {
	for _, bc := range []struct {
		name string
		be   BatchEncoder
	}{
		{"universal", NewUniversal(3)},
		{"oracle", NewOracleBase()},
	} {
		b.Run(bc.name, func(b *testing.B) { benchEncodeBatch(b, bc.be, 64, 32) })
	}
}

// BenchmarkEncodeTally32 is BenchmarkEncodeBatch32's batch through the
// encode-and-count entry on a 32-bit channel: the records plus the wire
// counts the bus models need, which EncodeBatch leaves to two more walks.
func BenchmarkEncodeTally32(b *testing.B) {
	const n, txnBytes = 64, 32
	c := NewUniversal(3)
	src := batchBenchSrc(n, txnBytes)
	out := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeTally(out, src, n, txnBytes, 4); err != nil {
			b.Fatal(err)
		}
	}
}
