package scheme

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/core"
)

// TestRoundTripAllSchemes encodes and decodes a random 32-byte sector stream
// through every registered scheme with a fresh decoder instance, the exact
// contract the bxtd gateway relies on.
func TestRoundTripAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	txns := make([][]byte, 64)
	for i := range txns {
		txns[i] = make([]byte, 32)
		if i%3 != 0 { // leave some all-zero sectors in the stream
			rng.Read(txns[i])
		}
	}
	for _, name := range Names() {
		enc, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		dec, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		var e core.Encoded
		got := make([]byte, 32)
		for i, txn := range txns {
			if err := enc.Encode(&e, txn); err != nil {
				t.Fatalf("%s: Encode txn %d: %v", name, i, err)
			}
			if err := dec.Decode(got, &e); err != nil {
				t.Fatalf("%s: Decode txn %d: %v", name, i, err)
			}
			if !bytes.Equal(got, txn) {
				t.Fatalf("%s: txn %d round trip mismatch", name, i)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	// No name aliases another: "default" is unknown like any other.
	for _, name := range []string{"no-such-scheme", "default"} {
		if _, err := New(name); err == nil {
			t.Errorf("New(%q) succeeded, want error", name)
		}
	}
}

func TestKnownAndNames(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	for _, n := range names {
		if !Known(n) {
			t.Errorf("Known(%q) = false for listed name", n)
		}
	}
	if Known("bogus") {
		t.Error("Known(bogus) = true")
	}
}

// TestCacheable checks the cacheable property against an explicit expected
// map and proves it empirically: a cacheable scheme's Encode must produce
// identical records for identical inputs regardless of instance or order —
// the contract the similarity cache depends on.
func TestCacheable(t *testing.T) {
	want := map[string]bool{
		"baseline": true, "basexor": true, "2b": true, "4b": true,
		"8b": true, "silent": true, "universal": true,
		"dbi": false, "dbi1": false, "dbi2": false, "dbi4": false,
		"bdenc": false, "bd": false, "fve": false, "universal+dbi1": false,
	}
	for _, name := range Names() {
		exp, ok := want[name]
		if !ok {
			t.Errorf("scheme %q has no expected cacheable value; classify it here", name)
			continue
		}
		if got := Cacheable(name); got != exp {
			t.Errorf("Cacheable(%q) = %v, want %v", name, got, exp)
		}
		if Cacheable(name) && DecodeStateful(name) {
			t.Errorf("%q is both cacheable and decode-stateful", name)
		}
		// bxtd gives a similarity cache only to metadata-free streams, so
		// a cacheable scheme that carried metadata would silently lose it.
		if Cacheable(name) {
			c, err := New(name)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			if m32, m64 := c.MetaBits(32), c.MetaBits(64); m32 != 0 || m64 != 0 {
				t.Errorf("cacheable %q carries metadata: MetaBits(32) = %d, MetaBits(64) = %d", name, m32, m64)
			}
		}
	}
	if Cacheable("bogus") {
		t.Error("Cacheable(bogus) = true, want false (fail toward encoding)")
	}

	rng := rand.New(rand.NewSource(31))
	txns := make([][]byte, 16)
	for i := range txns {
		txns[i] = make([]byte, 32)
		rng.Read(txns[i])
	}
	for _, name := range Names() {
		if !Cacheable(name) {
			continue
		}
		a, _ := New(name)
		b, _ := New(name)
		var ea, eb core.Encoded
		for i := range txns {
			if err := a.Encode(&ea, txns[i]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Second instance sees the stream reversed: order must not
			// matter for a cacheable scheme.
			if err := b.Encode(&eb, txns[len(txns)-1-i]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i := range txns {
			if err := a.Encode(&ea, txns[i]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := b.Encode(&eb, txns[i]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(ea.Data, eb.Data) || !bytes.Equal(ea.Meta, eb.Meta) {
				t.Fatalf("%s: records diverge across instances/order; not cacheable", name)
			}
		}
	}
}

// TestSnapshottable checks the stateful capability map against an explicit
// expected classification and against the codecs themselves: a scheme is
// Snapshottable exactly when its built codec implements Stateful, and every
// decode-stateful scheme must be snapshottable — that is what makes a pinned
// session migratable without a client decoder reset.
func TestSnapshottable(t *testing.T) {
	want := map[string]bool{
		"baseline": false, "basexor": false, "2b": false, "4b": false,
		"8b": false, "silent": false, "universal": false,
		"dbi": true, "dbi1": true, "dbi2": true, "dbi4": true,
		"bdenc": true, "bd": true, "fve": true, "universal+dbi1": false,
	}
	for _, name := range Names() {
		exp, ok := want[name]
		if !ok {
			t.Errorf("scheme %q has no expected snapshottable value; classify it here", name)
			continue
		}
		if got := Snapshottable(name); got != exp {
			t.Errorf("Snapshottable(%q) = %v, want %v", name, got, exp)
		}
		c, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if _, impl := AsStateful(c); impl != Snapshottable(name) {
			t.Errorf("%q: Snapshottable=%v but codec implements Stateful=%v; capability map out of sync",
				name, Snapshottable(name), impl)
		}
		if DecodeStateful(name) && !Snapshottable(name) {
			t.Errorf("%q is decode-stateful but not snapshottable: its pinned sessions cannot fail over without a reset", name)
		}
	}
	if Snapshottable("bogus") {
		t.Error("Snapshottable(bogus) = true, want false (fail toward reset)")
	}
}

// TestStatefulSnapshotRoundTrip snapshots every stateful scheme mid-stream
// into a fresh instance and requires byte-identical continuation — the end
// -to-end contract state transfer is built on.
func TestStatefulSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	txns := make([][]byte, 64)
	for i := range txns {
		txns[i] = make([]byte, 32)
		rng.Read(txns[i])
		if i > 0 && i%4 == 0 {
			copy(txns[i], txns[i-1]) // repeats keep stateful tables hot
		}
	}
	for _, name := range Names() {
		if !Snapshottable(name) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			orig, _ := New(name)
			dec := make([]byte, 32)
			var e core.Encoded
			for _, txn := range txns[:32] {
				if err := orig.Encode(&e, txn); err != nil {
					t.Fatalf("Encode: %v", err)
				}
				if err := orig.Decode(dec, &e); err != nil {
					t.Fatalf("Decode: %v", err)
				}
			}
			var buf bytes.Buffer
			s, _ := AsStateful(orig)
			if err := s.Snapshot(&buf); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			fresh, _ := New(name)
			r, _ := AsStateful(fresh)
			if err := r.Restore(&buf); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			var ea, eb core.Encoded
			for i, txn := range txns[32:] {
				if err := orig.Encode(&ea, txn); err != nil {
					t.Fatalf("Encode: %v", err)
				}
				if err := fresh.Encode(&eb, txn); err != nil {
					t.Fatalf("Encode: %v", err)
				}
				if !bytes.Equal(ea.Data, eb.Data) || !bytes.Equal(ea.Meta, eb.Meta) {
					t.Fatalf("txn %d: restored codec diverged from original", i)
				}
				if err := orig.Decode(dec, &ea); err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if err := fresh.Decode(dec, &eb); err != nil {
					t.Fatalf("restored Decode: %v", err)
				}
				if !bytes.Equal(dec, txn) {
					t.Fatalf("txn %d: restored decode mismatch", i)
				}
			}
		})
	}
}

// TestBatched checks which codecs natively implement core.BatchEncoder and
// the BatchEncoder adapter: natively batched codecs come back as themselves
// and everything else gets the sequential fallback.
func TestBatched(t *testing.T) {
	want := map[string]bool{
		"baseline": false, "basexor": true, "2b": true, "4b": true,
		"8b": true, "silent": true, "universal": true,
		"dbi": false, "dbi1": false, "dbi2": false, "dbi4": false,
		"bdenc": false, "bd": false, "fve": false, "universal+dbi1": false,
	}
	for _, name := range Names() {
		exp, ok := want[name]
		if !ok {
			t.Errorf("scheme %q has no expected batched value; classify it here", name)
			continue
		}
		c, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		_, native := c.(core.BatchEncoder)
		if native != exp {
			t.Errorf("%q natively batched = %v, want %v", name, native, exp)
		}
		if _, fallback := BatchEncoder(c).(seqBatch); native == fallback {
			t.Errorf("%q: BatchEncoder adapter mismatch (native %v, fallback %v)", name, native, fallback)
		}
	}
}

// TestSeqBatchFallbackMatchesEncode drives a non-natively-batched scheme
// through the BatchEncoder adapter and checks each record against sequential
// Encode on a fresh instance, including the stateful bdenc whose records
// depend on encode order.
func TestSeqBatchFallbackMatchesEncode(t *testing.T) {
	for _, name := range []string{"baseline", "dbi1", "bdenc", "universal+dbi1"} {
		t.Run(name, func(t *testing.T) {
			const n, txnBytes = 16, 32
			rng := rand.New(rand.NewSource(13))
			src := make([]byte, n*txnBytes)
			rng.Read(src)
			copy(src[txnBytes:2*txnBytes], src[:txnBytes]) // a consecutive duplicate

			batched, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			be := BatchEncoder(batched)
			dst := make([]core.Encoded, n)
			if err := be.EncodeBatch(dst, src, n, txnBytes); err != nil {
				t.Fatalf("EncodeBatch: %v", err)
			}

			seq, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			var want core.Encoded
			for i := 0; i < n; i++ {
				if err := seq.Encode(&want, src[i*txnBytes:(i+1)*txnBytes]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst[i].Data, want.Data) || !bytes.Equal(dst[i].Meta, want.Meta) {
					t.Fatalf("record %d diverges from sequential Encode", i)
				}
			}

			// Shape errors must surface through the adapter too.
			if err := be.EncodeBatch(dst[:1], src, n, txnBytes); err == nil {
				t.Error("short dst accepted")
			}
		})
	}
}
