package obs

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

var update = flag.Bool("update", false, "rewrite the /debug/trace golden file under testdata/")

// ringSpans builds count spans whose Start advances by a microsecond each,
// so Snapshot's start-time order is their insertion order; sessions maps
// span i to its session id.
func ringSpans(count int, sessions func(i int) uint64) []Span {
	base := time.Unix(1_700_000_000, 0)
	out := make([]Span, count)
	for i := range out {
		s := &out[i]
		s.Reset(uint64(0x1000+i), uint64(i), sessions(i), "universal")
		s.Start = base.Add(time.Duration(i) * time.Microsecond)
		s.Observe(StageFrameRead, time.Duration(i))
	}
	return out
}

// checkKeepsLastN adds spans to a ring sized n and requires Snapshot to
// return exactly the newest n, oldest first.
func checkKeepsLastN(t *testing.T, n int, spans []Span) {
	t.Helper()
	ring := NewTraceRing(n)
	for i := range spans {
		ring.Add(&spans[i])
	}
	got := ring.Snapshot()
	if len(got) != n {
		t.Fatalf("Snapshot holds %d spans, want the newest %d of %d", len(got), n, len(spans))
	}
	for i, s := range got {
		if want := uint64(len(spans) - n + i); s.BatchID != want {
			t.Fatalf("Snapshot[%d] is batch %d, want %d", i, s.BatchID, want)
		}
	}
}

// TestTraceRingKeepsLastN checks a ring sized n keeps the newest n spans
// when one session adds them all, as a single-session tier and a client's
// ring (every span on stream 0) do.
func TestTraceRingKeepsLastN(t *testing.T) {
	const n = 64
	checkKeepsLastN(t, n, ringSpans(3*n, func(int) uint64 { return 7 }))
}

// TestTraceRingKeepsLastNInterleaved is the same check with 50 sessions
// adding in turn.
func TestTraceRingKeepsLastNInterleaved(t *testing.T) {
	const n = 64
	checkKeepsLastN(t, n, ringSpans(3*n, func(i int) uint64 { return uint64(i % 50) }))
}

// TestTraceHandlerGolden pins the /debug/trace document byte for byte over
// a fixed span set: stages and their ns, start, the wire counters, the
// session rollups and an exemplar, unfiltered and under the ?trace=,
// ?session=, ?scheme= and ?limit= filters. The ring is larger than the
// set, so retention does not enter into it. Regenerate with
//
//	go test ./internal/obs -run TestTraceHandlerGolden -update
func TestTraceHandlerGolden(t *testing.T) {
	// Start renders in the local zone; pin it so the file reads the same
	// on every machine.
	local := time.Local
	time.Local = time.UTC
	t.Cleanup(func() { time.Local = local })

	ring := NewTraceRing(64)
	base := time.Unix(1_700_000_000, 123_456_789)
	schemes := []string{"universal", "basexor", "bdenc"}
	stagesBySide := [][]Stage{
		{StageFrameRead, StageAdmission, StageEncode, StageAccount, StageFrameWrite},
		{StageFrameRead, StageAdmission, StageSimcacheLookup, StageEncode, StageAccount, StageFrameWrite},
		{StageFrameRead, StageBackend, StageFrameWrite},
		{StageFrameWrite, StageFrameRead},
	}
	for i := 0; i < 24; i++ {
		var s Span
		s.Reset(uint64(0xA000+i*0x111), uint64(100+i), uint64(i%5), schemes[i%len(schemes)])
		s.Start = base.Add(time.Duration(i)*1500*time.Microsecond + time.Duration(i*i))
		for j, st := range stagesBySide[i%len(stagesBySide)] {
			s.Observe(st, time.Duration(1000*(i+1)+j*37))
		}
		if i%6 != 5 { // failed batches carry no wire accounting
			s.Txns = 64 * (1 + i%4)
			s.DataBits = uint64(s.Txns) * 256
			s.BaseOnes, s.EncOnes = s.DataBits/2+uint64(i), s.DataBits/4+uint64(i)
			s.BaseToggles, s.EncToggles = s.DataBits/3+uint64(2*i), s.DataBits/5+uint64(3*i)
		}
		ring.Add(&s)
	}
	stages := NewHistogramTracer(nil)
	stages.Hist("basexor", StageEncode).ObserveEx(0.25, 0xA000+4*0x111)

	var doc bytes.Buffer
	for _, q := range []string{
		"",
		"?trace=" + FormatTraceID(0xA000+7*0x111),
		"?trace=43827", // 0xAB33 in decimal
		"?session=3",
		"?scheme=bdenc&limit=3",
		"?limit=2",
		"?limit=0",
	} {
		rec := httptest.NewRecorder()
		TraceHandler(ring, stages).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace"+q, nil))
		fmt.Fprintf(&doc, "GET /debug/trace%s -> %d\n", q, rec.Code)
		doc.Write(rec.Body.Bytes())
	}

	path := filepath.Join("testdata", "debug_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(doc.Bytes(), want) {
		t.Fatalf("/debug/trace output diverges from %s:\n%s", path, doc.Bytes())
	}
}

// TestTraceRingBytesPerSpan gates the ring's footprint the way
// TestReservedBytesPerEntry gates the similarity cache's: NewTraceRing
// reserves at most 144 bytes per retained span.
func TestTraceRingBytesPerSpan(t *testing.T) {
	const n, budget = 2048, 144
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ring := NewTraceRing(n)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ring)
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("NewTraceRing(%d) reserves %.1f B per span (record %d B)", n, per, unsafe.Sizeof(spanRecord{}))
	if per > budget {
		t.Errorf("NewTraceRing(%d) reserves %.1f B per span, want at most %d", n, per, budget)
	}
}
