package simcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden snapshot files")

// goldenCache builds the deterministic cache the golden snapshot captures.
func goldenCache(t *testing.T) *Cache {
	t.Helper()
	c := newCache(t, Config{TxnBytes: 32, Capacity: 64, Shards: 2, Bands: 16})
	rng := rand.New(rand.NewSource(42))
	var p Probe
	for i := 0; i < 24; i++ {
		src := make([]byte, 32)
		rng.Read(src)
		data := make([]byte, 32)
		rng.Read(data)
		meta := make([]byte, i%3) // exercise empty and non-empty metadata
		rng.Read(meta)
		c.Insert(&p, src, data, meta)
	}
	return c
}

const goldenPath = "testdata/v1.snap"

func TestGoldenSnapshot(t *testing.T) {
	c := goldenCache(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := c.SaveFile(goldenPath); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("snapshot bytes diverge from golden file; format or iteration order changed (run with -update if intentional)")
	}

	// Loading the golden file must reproduce every entry.
	warm := newCache(t, Config{TxnBytes: 32, Capacity: 64, Shards: 2, Bands: 16})
	n, err := warm.LoadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 || warm.Len() != 24 {
		t.Fatalf("loaded %d entries, cache holds %d, want 24", n, warm.Len())
	}
	// Every original entry must be an exact hit with identical bytes.
	rng := rand.New(rand.NewSource(42))
	var p Probe
	for i := 0; i < 24; i++ {
		src := make([]byte, 32)
		rng.Read(src)
		data := make([]byte, 32)
		rng.Read(data)
		meta := make([]byte, i%3)
		rng.Read(meta)
		if got := warm.Lookup(&p, src); got != HitExact {
			t.Fatalf("entry %d: %v after warm load", i, got)
		}
		if !bytes.Equal(p.Data, data) || !bytes.Equal(p.Meta, meta) {
			t.Fatalf("entry %d: bytes corrupted across snapshot", i)
		}
	}
}

// TestSnapshotGeometryChange loads a snapshot into a cache with different
// band/shard geometry: entries carry content only, so this must work.
func TestSnapshotGeometryChange(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCache(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	c := newCache(t, Config{TxnBytes: 32, Capacity: 64, Shards: 5, Bands: 8})
	n, err := c.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 || c.Len() != 24 {
		t.Fatalf("loaded %d entries into regeometried cache, holds %d", n, c.Len())
	}
}

// TestSnapshotCapacityShrink loads more entries than the target cache can
// hold; LRU pressure must bound it without error.
func TestSnapshotCapacityShrink(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCache(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	c := newCache(t, Config{TxnBytes: 32, Capacity: 8, Shards: 1})
	if _, err := c.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if c.Len() > 8 {
		t.Fatalf("cache holds %d entries, capacity 8", c.Len())
	}
	checkInvariants(t, c)
}

// TestCorruptSnapshots feeds damaged snapshots to Load: every one must be
// rejected with ErrSnapshot, leave the cache cold and usable, and never
// panic — a bad snapshot must not take bxtd down.
func TestCorruptSnapshots(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCache(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flip := func(off int) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= 0x01
		return b
	}
	version := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(version[4:], snapshotVersion+1)
	count := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(count[10:], 1_000_000)

	cases := map[string][]byte{
		"empty":            {},
		"short":            good[:headerLen],
		"bad magic":        flip(0),
		"bad version":      version,
		"body bit flip":    flip(headerLen + 40),
		"crc bit flip":     flip(len(good) - 1),
		"truncated body":   good[:len(good)/2],
		"truncated crc":    good[:len(good)-2],
		"excess count":     count,
		"trailing garbage": append(append([]byte(nil), good...), 0xde, 0xad),
	}
	for name, raw := range cases {
		c := newCache(t, Config{TxnBytes: 32})
		n, err := c.Load(bytes.NewReader(raw))
		if err == nil {
			t.Errorf("%s: corrupt snapshot accepted (%d entries)", name, n)
			continue
		}
		if !errors.Is(err, ErrSnapshot) {
			t.Errorf("%s: error %v does not wrap ErrSnapshot", name, err)
		}
		if c.Len() != 0 {
			t.Errorf("%s: cache holds %d entries after failed load", name, c.Len())
		}
		// The cache must stay fully usable cold.
		var p Probe
		src := make([]byte, 32)
		c.Insert(&p, src, src, nil)
		if got := c.Lookup(&p, src); got != HitExact {
			t.Errorf("%s: cache unusable after failed load: %v", name, got)
		}
	}
}

// TestSnapshotTxnMismatch rejects a snapshot for a different transaction
// size before touching any entries.
func TestSnapshotTxnMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCache(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	c := newCache(t, Config{TxnBytes: 64})
	if _, err := c.Load(&buf); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("32-byte snapshot into 64-byte cache: %v", err)
	}
}

func TestSaveLoadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	c := goldenCache(t)
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	warm := newCache(t, Config{TxnBytes: 32, Capacity: 64, Shards: 2, Bands: 16})
	n, err := warm.LoadFile(path)
	if err != nil || n != 24 {
		t.Fatalf("LoadFile = (%d, %v)", n, err)
	}
	// No stray temp files left behind by the atomic save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files in snapshot dir, want 1", len(entries))
	}
}

func TestLoadFileMissing(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32})
	n, err := c.LoadFile(filepath.Join(t.TempDir(), "absent.snap"))
	if n != 0 || err != nil {
		t.Fatalf("missing snapshot = (%d, %v), want (0, nil) cold start", n, err)
	}
}

func TestSaveEmptyCache(t *testing.T) {
	c := newCache(t, Config{TxnBytes: 32})
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	warm := newCache(t, Config{TxnBytes: 32})
	n, err := warm.Load(&buf)
	if n != 0 || err != nil {
		t.Fatalf("empty snapshot = (%d, %v)", n, err)
	}
}
