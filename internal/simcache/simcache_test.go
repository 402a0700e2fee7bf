package simcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/core"
)

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{TxnBytes: 0},                // no transaction size
		{TxnBytes: 12},               // not a multiple of 8
		{TxnBytes: 32, Bands: 7},     // 256 bits not divisible by 7
		{TxnBytes: 24, Bands: 16},    // 192/16 = 12 bits, does not divide 64
		{TxnBytes: 32, Capacity: -1}, // negative capacity
		{TxnBytes: 32, Threshold: -3},
		{TxnBytes: 32, Shards: -1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d (%+v): invalid config accepted", i, cfg)
		}
	}
	// Defaults fill zero fields.
	c := newCache(t, Config{TxnBytes: 32})
	got := c.Config()
	if got.Capacity != DefaultCapacity || got.Threshold != DefaultThreshold ||
		got.Bands != DefaultBands || got.Shards != DefaultShards {
		t.Errorf("defaults not applied: %+v", got)
	}
}

func TestExactHit(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32})
	var p Probe
	src := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(src)
	data := bytes.Repeat([]byte{0xaa}, 32)
	meta := []byte{1, 2, 3}

	if got := c.Lookup(&p, src); got != Miss {
		t.Fatalf("cold lookup = %v, want miss", got)
	}
	c.Insert(&p, src, data, meta)
	if got := c.Lookup(&p, src); got != HitExact {
		t.Fatalf("lookup after insert = %v, want exact hit", got)
	}
	if !bytes.Equal(p.Data, data) || !bytes.Equal(p.Meta, meta) {
		t.Fatalf("hit returned data %x meta %x", p.Data, p.Meta)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNearHit(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32, Threshold: 12})
	var p Probe
	ref := make([]byte, 32)
	rand.New(rand.NewSource(2)).Read(ref)
	refEnc := bytes.Repeat([]byte{0x55}, 32)
	c.Insert(&p, ref, refEnc, nil)

	// Flip 3 bits well away from band 0 (bytes 0-1 under 16-bit bands), so
	// the probe lands on the same shard and within threshold.
	src := append([]byte(nil), ref...)
	src[20] ^= 0x07
	if got := c.Lookup(&p, src); got != HitNear {
		t.Fatalf("lookup = %v, want near hit", got)
	}
	if !bytes.Equal(p.Ref, ref) || !bytes.Equal(p.RefEnc, refEnc) {
		t.Fatalf("near hit returned ref %x enc %x", p.Ref, p.RefEnc)
	}
	if p.Distance != 3 {
		t.Fatalf("near-hit distance = %d, want 3", p.Distance)
	}
	s := c.Stats()
	if s.NearHits != 1 || s.NearDistSum != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.AvgNearDistance(); got != 3 {
		t.Fatalf("avg near distance = %v, want 3", got)
	}

	// Beyond the threshold: 16 flipped bits must miss.
	far := append([]byte(nil), ref...)
	far[16] ^= 0xff
	far[24] ^= 0xff
	if got := c.Lookup(&p, far); got != Miss {
		t.Fatalf("distance-16 lookup = %v, want miss", got)
	}
}

// TestBandingRecall verifies the pigeonhole guarantee the bands are built
// on: any co-sharded pair within the threshold is found, wherever the
// differing bits fall, as long as fewer bands are dirtied than exist.
func TestBandingRecall(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32, Threshold: 12, Bands: 16, Shards: 1})
	rng := rand.New(rand.NewSource(3))
	var p Probe
	for trial := 0; trial < 200; trial++ {
		ref := make([]byte, 32)
		rng.Read(ref)
		c.Clear()
		c.Insert(&p, ref, ref, nil)
		src := append([]byte(nil), ref...)
		// Scatter up to 11 bit flips anywhere in the transaction.
		flips := 1 + rng.Intn(11)
		seen := map[int]bool{}
		for len(seen) < flips {
			bit := rng.Intn(256)
			if !seen[bit] {
				seen[bit] = true
				src[bit/8] ^= byte(1 << (bit % 8))
			}
		}
		if got := c.Lookup(&p, src); got != HitNear {
			t.Fatalf("trial %d: %d-bit diff = %v, want near hit", trial, flips, got)
		}
		if p.Distance != flips {
			t.Fatalf("trial %d: distance %d, want %d", trial, p.Distance, flips)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// Single shard so capacity behaves exactly.
	c := newCache(t, Config{TxnBytes: 32, Capacity: 4, Shards: 1, Threshold: 1})
	var p Probe
	mk := func(i int) []byte {
		src := make([]byte, 32)
		rand.New(rand.NewSource(int64(100 + i))).Read(src)
		return src
	}
	for i := 0; i < 4; i++ {
		c.Insert(&p, mk(i), mk(i), nil)
	}
	// Touch entry 0 so entry 1 is now the LRU victim.
	if got := c.Lookup(&p, mk(0)); got != HitExact {
		t.Fatalf("entry 0 lookup = %v", got)
	}
	c.Insert(&p, mk(4), mk(4), nil)
	if got := c.Lookup(&p, mk(1)); got != Miss {
		t.Fatalf("evicted entry 1 lookup = %v, want miss", got)
	}
	if got := c.Lookup(&p, mk(0)); got != HitExact {
		t.Fatalf("refreshed entry 0 lookup = %v, want exact hit", got)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32, Capacity: 4, Shards: 1})
	var p Probe
	src := make([]byte, 32)
	rand.New(rand.NewSource(9)).Read(src)
	c.Insert(&p, src, []byte("old"), nil)
	c.Insert(&p, src, []byte("new"), []byte{7})
	if c.Len() != 1 {
		t.Fatalf("duplicate insert grew the cache to %d entries", c.Len())
	}
	if got := c.Lookup(&p, src); got != HitExact {
		t.Fatalf("lookup = %v", got)
	}
	if string(p.Data) != "new" || !bytes.Equal(p.Meta, []byte{7}) {
		t.Fatalf("refresh not applied: data %q meta %x", p.Data, p.Meta)
	}
}

// TestHashCollisionReplacesEntry builds two transactions with equal content
// hashes — FNV-1a's last step is a bijection of (state ^ word), so the final
// word can cancel any difference in the prefix — on the same shard. The
// newcomer must take over the incumbent's slot and count as an eviction.
func TestHashCollisionReplacesEntry(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32, Capacity: 4, Shards: 2})
	var p Probe
	a := make([]byte, 32)
	rand.New(rand.NewSource(31)).Read(a)
	wa, wb := make([]uint64, 4), make([]uint64, 4)
	core.LoadWords(wa, a)
	copy(wb, wa)
	wb[0] ^= 0xffff << 32 // band 0 (the low 16 bits) keeps the shard
	wb[3] = hashWords(wb[:3]) ^ hashWords(wa[:3]) ^ wa[3]
	if hashWords(wa) != hashWords(wb) {
		t.Fatal("constructed transactions do not collide")
	}
	b := appendWords(nil, wb)

	c.Insert(&p, a, []byte("a"), nil)
	c.Insert(&p, b, []byte("b"), nil)
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 1 {
		t.Fatalf("after colliding insert: %+v, want 1 entry and 1 eviction", s)
	}
	if got := c.Lookup(&p, b); got != HitExact || string(p.Data) != "b" {
		t.Fatalf("newcomer lookup = %v with data %q", got, p.Data)
	}
	if got := c.LookupExact(&p, a); got != Miss {
		t.Fatalf("displaced incumbent lookup = %v, want miss", got)
	}
	checkInvariants(t, c)
}

func TestLookupWrongLength(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32})
	var p Probe
	if got := c.Lookup(&p, make([]byte, 16)); got != Miss {
		t.Fatalf("wrong-length lookup = %v, want miss", got)
	}
	c.Insert(&p, make([]byte, 16), nil, nil) // silently ignored
	if c.Len() != 0 {
		t.Fatal("wrong-length insert was cached")
	}
}

func TestClear(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32, Shards: 2})
	var p Probe
	for i := 0; i < 10; i++ {
		src := make([]byte, 32)
		rand.New(rand.NewSource(int64(i))).Read(src)
		c.Insert(&p, src, src, nil)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("%d entries after Clear", c.Len())
	}
	src := make([]byte, 32)
	rand.New(rand.NewSource(0)).Read(src)
	if got := c.Lookup(&p, src); got != Miss {
		t.Fatalf("post-Clear lookup = %v, want miss", got)
	}
}

// TestNearHitPatchIntegration ties the near-hit contract to the codec: the
// Ref/RefEnc pair a near hit returns must let a PatchEncoder reproduce the
// full encoding byte for byte. This is the whole tentpole in miniature.
func TestNearHitPatchIntegration(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32, Shards: 1})
	codec := core.NewBaseXOR(4)
	rng := rand.New(rand.NewSource(11))
	var p Probe
	var enc core.Encoded

	ref := make([]byte, 32)
	rng.Read(ref)
	if err := codec.Encode(&enc, ref); err != nil {
		t.Fatal(err)
	}
	c.Insert(&p, ref, enc.Data, enc.Meta)

	src := append([]byte(nil), ref...)
	src[13] ^= 0x01
	src[29] ^= 0x80
	if got := c.Lookup(&p, src); got != HitNear {
		t.Fatalf("lookup = %v, want near hit", got)
	}
	out := make([]byte, 32)
	if !codec.PatchEncode(out, src, p.Ref, p.RefEnc) {
		t.Fatal("PatchEncode refused the cache's reference pair")
	}
	var want core.Encoded
	if err := codec.Encode(&want, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want.Data) {
		t.Fatalf("patched encoding differs from full encode\n got %x\nwant %x", out, want.Data)
	}
}

func TestHitRate(t *testing.T) {
	s := Stats{Hits: 6, NearHits: 2, Misses: 2}
	if got := s.HitRate(); got != 0.8 {
		t.Fatalf("hit rate = %v, want 0.8", got)
	}
	if got := (Stats{}).HitRate(); got != 0 {
		t.Fatalf("empty hit rate = %v", got)
	}
	if got := (Stats{}).AvgNearDistance(); got != 0 {
		t.Fatalf("empty avg distance = %v", got)
	}
}

func TestResultString(t *testing.T) {
	for r, want := range map[Result]string{Miss: "miss", HitExact: "hit", HitNear: "near-hit", Result(9): "Result(9)"} {
		if got := r.String(); got != want {
			t.Errorf("Result(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

// TestWideBands exercises the hash-folded band path (bands spanning whole
// words) that sub-word configurations never touch.
func TestWideBands(t *testing.T) {
	// 64-byte transactions, 4 bands of 128 bits each.
	c := newCache(t, Config{TxnBytes: 64, Bands: 4, Threshold: 3, Shards: 1})
	var p Probe
	ref := make([]byte, 64)
	rand.New(rand.NewSource(21)).Read(ref)
	c.Insert(&p, ref, ref, nil)
	if got := c.Lookup(&p, ref); got != HitExact {
		t.Fatalf("exact lookup = %v", got)
	}
	src := append([]byte(nil), ref...)
	src[40] ^= 0x04 // dirties one 128-bit band; 3 others stay clean
	if got := c.Lookup(&p, src); got != HitNear {
		t.Fatalf("near lookup = %v, want near hit", got)
	}
}

func TestStatsString(t *testing.T) {
	// Exercise fmt paths indirectly to keep coverage honest.
	s := Stats{Hits: 1}
	_ = fmt.Sprintf("%+v", s)
}

func TestLookupExactSkipsNearScan(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32, Shards: 1})
	var p Probe
	ref := make([]byte, 32)
	rand.New(rand.NewSource(13)).Read(ref)
	c.Insert(&p, ref, ref, nil)
	if got := c.LookupExact(&p, ref); got != HitExact {
		t.Fatalf("exact repeat = %v, want exact hit", got)
	}
	near := append([]byte(nil), ref...)
	near[20] ^= 0x01
	if got := c.LookupExact(&p, near); got != Miss {
		t.Fatalf("near duplicate under LookupExact = %v, want miss", got)
	}
	if s := c.Stats(); s.NearHits != 0 {
		t.Fatalf("LookupExact produced near hits: %+v", s)
	}
}

// TestAdmission checks the doorkeeper's verdicts on Probe.Admit: a miss
// admits, an exact hit does not, a near-hit variant is admitted from its
// second sighting on, and both Clear and the capacity-sized ageing make the
// doorkeeper forget what it saw.
func TestAdmission(t *testing.T) {
	const capacity = 4
	c := newCache(t, Config{TxnBytes: 32, Capacity: capacity, Shards: 1})
	var p Probe
	ref := make([]byte, 32)
	rand.New(rand.NewSource(41)).Read(ref)
	// variant flips bit 64+i, outside band 0 and within the threshold.
	variant := func(i int) []byte {
		v := append([]byte(nil), ref...)
		v[8+i/8] ^= 1 << (i % 8)
		return v
	}
	lookup := func(step string, src []byte, want Result, admit bool) {
		t.Helper()
		if got := c.Lookup(&p, src); got != want || p.Admit != admit {
			t.Fatalf("%s: lookup = %v with Admit %v, want %v with Admit %v", step, got, p.Admit, want, admit)
		}
	}

	lookup("cold miss", ref, Miss, true)
	c.Insert(&p, ref, ref, nil)
	lookup("exact hit", ref, HitExact, false)
	lookup("first sighting", variant(0), HitNear, false)
	lookup("second sighting", variant(0), HitNear, true)
	c.Insert(&p, variant(0), variant(0), nil)
	lookup("third sighting", variant(0), HitExact, false)

	lookup("first sighting before Clear", variant(1), HitNear, false)
	c.Clear()
	c.Insert(&p, ref, ref, nil)
	lookup("first sighting after Clear", variant(1), HitNear, false)

	// Variant 1's sighting above was the first since Clear; capacity more
	// first sightings age the doorkeeper out, so variant 1 is new again.
	for i := 2; i <= capacity+1; i++ {
		lookup(fmt.Sprintf("first sighting of variant %d", i), variant(i), HitNear, false)
	}
	if sh := &c.shards[0]; sh.sightings != 1 {
		t.Fatalf("doorkeeper holds %d sightings after ageing, want 1 (the last variant's)", sh.sightings)
	}
	lookup("sighting after ageing", variant(1), HitNear, false)
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v: unadmitted near hits changed the cache", s)
	}
}
