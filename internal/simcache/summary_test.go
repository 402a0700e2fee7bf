package simcache

import (
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/core"
)

// TestSummaryMemoization checks the accounting fast path end to end at the
// cache level: a stream of inserts and exact hits accounted exclusively
// through the probe's memoized summaries must leave a bus in exactly the
// state the full Transfer walk produces.
func TestSummaryMemoization(t *testing.T) {
	const txnBytes, width = 32, 32
	c, err := New(Config{TxnBytes: txnBytes, ChannelWidthBits: width})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p := GetProbe()
	defer PutProbe(p)

	refBase, refEnc := bus.New(width), bus.New(width)
	fastBase, fastEnc := bus.New(width), bus.New(width)
	srcs := make([][]byte, 16)
	encs := make([][]byte, 16)
	for i := range srcs {
		srcs[i] = make([]byte, txnBytes)
		encs[i] = make([]byte, txnBytes)
		rng.Read(srcs[i])
		rng.Read(encs[i])
	}
	for step := 0; step < 300; step++ {
		i := rng.Intn(len(srcs))
		if res := c.Lookup(p, srcs[i]); res == HitExact {
			if !p.HasSums {
				t.Fatalf("step %d: exact hit without summaries", step)
			}
		} else {
			c.Insert(p, srcs[i], encs[i], nil)
			if !p.HasSums {
				t.Fatalf("step %d: insert left no summaries", step)
			}
		}
		if err := fastBase.Apply(&p.RawSum); err != nil {
			t.Fatal(err)
		}
		if err := fastEnc.Apply(&p.EncSum); err != nil {
			t.Fatal(err)
		}
		raw := core.Encoded{Data: srcs[i]}
		if err := refBase.Transfer(&raw); err != nil {
			t.Fatal(err)
		}
		enc := core.Encoded{Data: encs[i]}
		if err := refEnc.Transfer(&enc); err != nil {
			t.Fatal(err)
		}
		if refBase.Stats() != fastBase.Stats() || refEnc.Stats() != fastEnc.Stats() {
			t.Fatalf("step %d: summary accounting diverged from Transfer", step)
		}
	}
}

// TestSummaryMetaBits checks that the encoded-record summary carries the
// configured side-band geometry through the cache.
func TestSummaryMetaBits(t *testing.T) {
	const txnBytes, width, metaBits = 32, 32, 8 // 8 beats × 1 wire
	c, err := New(Config{TxnBytes: txnBytes, ChannelWidthBits: width, MetaBits: metaBits})
	if err != nil {
		t.Fatal(err)
	}
	p := GetProbe()
	defer PutProbe(p)
	src := make([]byte, txnBytes)
	enc := make([]byte, txnBytes)
	meta := []byte{0xa5}
	rand.New(rand.NewSource(9)).Read(src)
	copy(enc, src)
	c.Insert(p, src, enc, meta)
	if res := c.Lookup(p, src); res != HitExact || !p.HasSums {
		t.Fatalf("lookup = %v, HasSums = %v", res, p.HasSums)
	}
	var want bus.Summary
	if err := bus.Summarize(&want, &core.Encoded{Data: enc, Meta: meta, MetaBits: metaBits}, width); err != nil {
		t.Fatal(err)
	}
	if p.EncSum.MetaOnes != want.MetaOnes || p.EncSum.MetaToggles != want.MetaToggles ||
		p.EncSum.MetaBits != metaBits {
		t.Fatalf("encoded summary meta accounting = %+v, want %+v", p.EncSum, want)
	}
}

// TestSummaryDisabled checks that a cache built without a channel width
// never reports summaries, and near hits never do (a patched record is new
// content the caller has to account itself).
func TestSummaryDisabled(t *testing.T) {
	plain, err := New(Config{TxnBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	p := GetProbe()
	defer PutProbe(p)
	src := make([]byte, 32)
	src[0] = 1
	plain.Insert(p, src, src, nil)
	if p.HasSums {
		t.Fatal("insert into a width-less cache reported summaries")
	}
	if res := plain.Lookup(p, src); res != HitExact || p.HasSums {
		t.Fatalf("lookup = %v, HasSums = %v; want exact hit without summaries", res, p.HasSums)
	}

	summed, err := New(Config{TxnBytes: 32, ChannelWidthBits: 32})
	if err != nil {
		t.Fatal(err)
	}
	summed.Insert(p, src, src, nil)
	nearSrc := append([]byte(nil), src...)
	nearSrc[31] ^= 0x03
	if res := summed.Lookup(p, nearSrc); res != HitNear || p.HasSums {
		t.Fatalf("lookup = %v, HasSums = %v; want near hit without summaries", res, p.HasSums)
	}
}

// TestSummaryConfigValidation covers the channel-geometry checks.
func TestSummaryConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{TxnBytes: 32, ChannelWidthBits: 12},              // not byte-aligned
		{TxnBytes: 32, ChannelWidthBits: -8},              // negative
		{TxnBytes: 32, ChannelWidthBits: 48},              // 6-byte beats don't divide 32
		{TxnBytes: 32, ChannelWidthBits: 32, MetaBits: 7}, // 7 bits across 8 beats
		{TxnBytes: 32, MetaBits: 8},                       // meta without width
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): want geometry error", cfg)
		}
	}
	if _, err := New(Config{TxnBytes: 32, ChannelWidthBits: 32, MetaBits: 16}); err != nil {
		t.Errorf("2 meta wires over 8 beats should be valid: %v", err)
	}
}

// TestSummaryLookupZeroAlloc holds the zero-allocation guarantee with
// summary memoization on: once the probe's buffers warm, an exact hit that
// copies both summaries out still allocates nothing.
func TestSummaryLookupZeroAlloc(t *testing.T) {
	c, err := New(Config{TxnBytes: 32, ChannelWidthBits: 32})
	if err != nil {
		t.Fatal(err)
	}
	p := GetProbe()
	defer PutProbe(p)
	src := make([]byte, 32)
	src[7] = 0x42
	c.Insert(p, src, src, nil)
	c.Lookup(p, src) // warm the probe buffers
	if allocs := testing.AllocsPerRun(200, func() {
		if c.Lookup(p, src) != HitExact {
			t.Fatal("lost the entry")
		}
	}); allocs != 0 {
		t.Fatalf("exact hit with summaries allocates %v per op, want 0", allocs)
	}
}
