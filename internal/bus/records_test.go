package bus

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/hpca18/bxt/internal/core"
)

// recordMetaBits are the side-band widths the record differential drives:
// none, the byte-lane widths, two that leave spare bits in the last
// metadata byte, a full register, and one past it (the per-record Transfer
// fallback).
var recordMetaBits = []int{0, 8, 12, 16, 24, 32, 64, 96}

// recordsOps replays ops against two buses of the given width: fast charges
// each record block with one TransferRecords call, ref with one Transfer
// per record. Each op byte picks an action (low two bits) and its size (the
// rest); the other three actions — Idle, a metadata-free TransferBatch and
// a single Transfer of a record with a different side-band width — run on
// both buses alike, so the fast path must leave exactly the wire history
// Transfer would. Stats and wire state are compared after every op.
func recordsOps(t *testing.T, width, txnBytes, metaBits int, seed int64, ops []byte) {
	t.Helper()
	fast, ref := New(width), New(width)
	rng := rand.New(rand.NewSource(seed))
	beats := txnBytes / fast.BeatBytes()
	metaBytes := (metaBits + 7) / 8
	recLen := txnBytes + metaBytes
	for step, op := range ops {
		size := int(op >> 2)
		switch op & 3 {
		case 0:
			n := size % 9
			records := recordBlock(rng, n, txnBytes, metaBytes)
			if err := fast.TransferRecords(records, txnBytes, metaBits); err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(records); off += recLen {
				e := core.Encoded{Data: records[off : off+txnBytes], Meta: records[off+txnBytes : off+recLen], MetaBits: metaBits}
				if err := ref.Transfer(&e); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			fast.Idle(size % 3)
			ref.Idle(size % 3)
		case 2:
			p := recordBlock(rng, size%5, txnBytes, 0)
			if err := fast.TransferBatch(p, txnBytes); err != nil {
				t.Fatal(err)
			}
			if err := ref.TransferBatch(p, txnBytes); err != nil {
				t.Fatal(err)
			}
		case 3:
			// Another stream width on the same bus: wider side-band
			// history must survive a narrower record block untouched.
			other := beats * (1 + size%8)
			rec := recordBlock(rng, 1, txnBytes, (other+7)/8)
			e := core.Encoded{Data: rec[:txnBytes], Meta: rec[txnBytes:], MetaBits: other}
			if err := fast.Transfer(&e); err != nil {
				t.Fatal(err)
			}
			if err := ref.Transfer(&e); err != nil {
				t.Fatal(err)
			}
		}
		if fs, rs := fast.Stats(), ref.Stats(); fs != rs {
			t.Fatalf("step %d (op %#02x): stats diverge\nrecords    %+v\nper-record %+v", step, op, fs, rs)
		}
		if fast.haveState != ref.haveState || !bytes.Equal(fast.lastData, ref.lastData) || !slices.Equal(fast.lastMeta, ref.lastMeta) {
			t.Fatalf("step %d (op %#02x): wire state diverges\nrecords    %v %x %v\nper-record %v %x %v", step, op,
				fast.haveState, fast.lastData, fast.lastMeta, ref.haveState, ref.lastData, ref.lastMeta)
		}
	}
}

// recordBlock builds n back-to-back [data | meta] records with repeats,
// zero runs and random metadata (spare bits in the last metadata byte
// included, which the bus must ignore), so boundaries see equal neighbours
// on both wire groups.
func recordBlock(rng *rand.Rand, n, txnBytes, metaBytes int) []byte {
	recLen := txnBytes + metaBytes
	p := make([]byte, n*recLen)
	rng.Read(p)
	for i := 1; i < n; i++ {
		rec, prev := p[i*recLen:(i+1)*recLen], p[(i-1)*recLen:i*recLen]
		switch rng.Intn(4) {
		case 0:
			copy(rec, prev)
		case 1:
			clear(rec)
		}
	}
	return p
}

// recordGeometries are the (width, transaction) pairs of the record
// differential: 4- and 8-byte beats, 2 to 8 beats per record.
var recordGeometries = []struct{ width, txnBytes int }{{32, 32}, {64, 32}, {32, 16}, {64, 16}}

// TestTransferRecordsMatchesTransfer runs the record differential over
// every geometry and side-band width with a fixed op stream.
func TestTransferRecordsMatchesTransfer(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	ops := make([]byte, 200)
	rng.Read(ops)
	for _, g := range recordGeometries {
		for _, metaBits := range recordMetaBits {
			if metaBits%(g.txnBytes/(g.width/8)) != 0 {
				continue
			}
			t.Run(fmt.Sprintf("%dbit-%dB-meta%d", g.width, g.txnBytes, metaBits), func(t *testing.T) {
				recordsOps(t, g.width, g.txnBytes, metaBits, 1, ops)
			})
		}
	}
}

// FuzzTransferRecords is the record differential over fuzzer-chosen
// geometry, side-band width, record contents and op streams.
//
//	go test -run '^$' -fuzz FuzzTransferRecords -fuzztime 15s ./internal/bus/
func FuzzTransferRecords(f *testing.F) {
	f.Add(uint8(0), uint8(5), int64(1), []byte{0x20, 0x21, 0x22, 0x23, 0x20})
	f.Add(uint8(1), uint8(7), int64(2), []byte{0x1c, 0x07, 0x1c, 0x1e, 0x1c})
	f.Add(uint8(2), uint8(2), int64(3), []byte{0x03, 0x1c, 0x01, 0x1c})
	f.Add(uint8(3), uint8(0), int64(4), []byte{0x1c, 0x02, 0x1c})
	f.Fuzz(func(t *testing.T, geom, meta uint8, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		g := recordGeometries[int(geom)%len(recordGeometries)]
		beats := g.txnBytes / (g.width / 8)
		var fit []int
		for _, m := range recordMetaBits {
			if m%beats == 0 {
				fit = append(fit, m)
			}
		}
		recordsOps(t, g.width, g.txnBytes, fit[int(meta)%len(fit)], seed, ops)
	})
}

// TestTransferRecordsGeometry verifies shape validation: a refused call
// charges nothing.
func TestTransferRecordsGeometry(t *testing.T) {
	b := New(32)
	for _, tc := range []struct {
		name                  string
		n, txnBytes, metaBits int
	}{
		{"transaction not filling beats", 36, 30, 8},
		{"metadata not dividing across beats", 36, 32, 12},
		{"negative metadata", 32, 32, -8},
		{"records not dividing", 40, 32, 32},
		{"wide records not dividing", 40, 32, 128},
	} {
		if err := b.TransferRecords(make([]byte, tc.n), tc.txnBytes, tc.metaBits); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := b.TransferRecords(nil, 32, 32); err != nil {
		t.Errorf("no records: %v", err)
	}
	if b.Stats() != (Stats{}) {
		t.Errorf("refused calls charged stats: %+v", b.Stats())
	}
}

// TestTransferRecordsZeroAlloc pins the serving accounting path at zero
// allocations once the bus has its wire state, in the register path and
// the wide per-record fallback alike.
func TestTransferRecordsZeroAlloc(t *testing.T) {
	for _, metaBits := range []int{32, 128} {
		b := New(32)
		records := recordBlock(rand.New(rand.NewSource(9)), 64, 32, metaBits/8)
		if err := b.TransferRecords(records, 32, metaBits); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if err := b.TransferRecords(records, 32, metaBits); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("metaBits %d: TransferRecords allocates %.1f times per call", metaBits, avg)
		}
	}
}

// BenchmarkTransferRecords compares one TransferRecords call against a
// Transfer call per record for a 64-record BD-Encoding block (32 B of data
// and 32 metadata bits per record) on a 32-bit channel.
func BenchmarkTransferRecords(b *testing.B) {
	const n, txnBytes, metaBits = 64, 32, 32
	records := recordBlock(rand.New(rand.NewSource(7)), n, txnBytes, metaBits/8)
	recLen := txnBytes + metaBits/8
	b.Run("records", func(b *testing.B) {
		bus := New(32)
		b.SetBytes(int64(len(records)))
		for i := 0; i < b.N; i++ {
			if err := bus.TransferRecords(records, txnBytes, metaBits); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-record", func(b *testing.B) {
		bus := New(32)
		b.SetBytes(int64(len(records)))
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(records); off += recLen {
				e := core.Encoded{Data: records[off : off+txnBytes], Meta: records[off+txnBytes : off+recLen], MetaBits: metaBits}
				if err := bus.Transfer(&e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
