package server

import (
	"bytes"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// newBenchStream builds a session's stream 0 the way handshake does, minus
// the network and the stream table, so the per-batch path can be driven
// directly.
func newBenchStream(t testing.TB, schemeName string, txnSize int) *stream {
	t.Helper()
	return newConfigStream(t, testConfig(), schemeName, txnSize)
}

// newConfigStream is newBenchStream on a server built from cfg.
func newConfigStream(t testing.TB, cfg config.Server, schemeName string, txnSize int) *stream {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ss := &session{
		srv: srv,
		id:  1,
		w:   srv.host.NewWriter(nil), // processBatch reserves its reply here
		log: srv.log.With("session", 1),
	}
	st, err := ss.openStream(0, schemeName, txnSize)
	if err != nil {
		t.Fatalf("openStream(%s): %v", schemeName, err)
	}
	return st
}

// TestProcessBatchZeroAlloc is the serving-side zero-allocation regression
// test: after warm-up, one batch through encode + bus accounting + reply
// assembly must not allocate, for metadata-free and metadata-carrying
// schemes alike, and for a cache-on stream serving a replayed hot-set batch.
func TestProcessBatchZeroAlloc(t *testing.T) {
	cached := testConfig()
	cached.SimCache.Enabled = true
	for _, tc := range []struct {
		name, scheme string
		cfg          config.Server
		txns         []trace.Transaction
	}{
		{"universal", "universal", testConfig(), makeTxns(rand.New(rand.NewSource(7)), 64, 32)},
		{"basexor", "basexor", testConfig(), makeTxns(rand.New(rand.NewSource(7)), 64, 32)},
		{"bdenc", "bdenc", testConfig(), makeTxns(rand.New(rand.NewSource(7)), 64, 32)},
		{"dbi1", "dbi1", testConfig(), makeTxns(rand.New(rand.NewSource(7)), 64, 32)},
		{"4b-cached", "4b", cached, makeHotTxns(7, 64, 32, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newConfigStream(t, tc.cfg, tc.scheme, 32)
			var id uint64
			run := func() {
				id++
				if _, err := st.processBatch(id, tc.txns); err != nil {
					t.Fatalf("processBatch: %v", err)
				}
			}
			// Warm up buffer growth (the session's batch scratch and the
			// Writer's block the reply is built in) and, on the cached
			// stream, admit every variant of the batch.
			for i := 0; i < 8; i++ {
				run()
			}
			if avg := testing.AllocsPerRun(100, run); avg != 0 {
				t.Fatalf("processBatch allocates %.1f times per batch, want 0", avg)
			}
		})
	}
}

// TestTranscodeReplyReuse verifies the pipeline still round-trips when the
// client reuses its marshalling and reply buffers across batches (the
// returned record slices alias the previous reply's storage).
func TestTranscodeReplyReuse(t *testing.T) {
	srv := startServer(t, testConfig())
	c, err := client.Dial(srv.Addr(), "universal", 32)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	dec, err := scheme.New("universal")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	decoded := make([]byte, 32)
	for i := 0; i < 5; i++ {
		txns := makeTxns(rng, 32, 32)
		reply, err := c.Transcode(txns)
		if err != nil {
			t.Fatalf("Transcode: %v", err)
		}
		if got, want := len(reply.Records), len(txns); got != want {
			t.Fatalf("batch %d: %d records, want %d", i, got, want)
		}
		for j, rec := range reply.Records {
			e := core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: c.MetaBits()}
			if err := dec.Decode(decoded, &e); err != nil {
				t.Fatalf("decode record %d: %v", j, err)
			}
			if !bytes.Equal(decoded, txns[j].Data) {
				t.Fatalf("batch %d record %d does not round-trip", i, j)
			}
		}
	}
}

// helloOnlyAllocBudget is the most one connection that completes the Hello
// and closes without a batch may allocate, client dial and bxtd session
// together: what a proxy health probe costs this tier. It measured about
// 4.6 KB on loopback, so the budget leaves over 40% headroom. A session's
// one frame buffer starts Hello-sized (512 B) and grows only with the
// frames received, so a session that sizes its read buffer for a batch
// (16 KiB or more) at handshake, or keeps a write buffer, does not fit.
const helloOnlyAllocBudget = 8 << 10

// TestHelloOnlySessionAllocations is the bxtd half of the probe
// allocation gate: 200 connections that handshake the way a health probe
// does and close, each waited out until its session has been torn down.
func TestHelloOnlySessionAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 200 loopback sessions")
	}
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv := startServer(t, testConfig())
	hello, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, Scheme: "baseline", TxnSize: 64})
	if err != nil {
		t.Fatalf("MarshalHello: %v", err)
	}
	var frame bytes.Buffer
	if err := trace.WriteFrame(&frame, trace.FrameHello, hello); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	reply := make([]byte, 256)
	session := func() {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := conn.Write(frame.Bytes()); err != nil {
			t.Fatalf("write hello: %v", err)
		}
		ft, _, err := trace.ReadFrame(conn, reply)
		if err != nil || ft != trace.FrameHelloOK {
			t.Fatalf("hello answered with frame %#x, err %v", ft, err)
		}
		conn.Close()
		for srv.host.Active() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < 20; i++ {
		session() // fill the scheme's caches
	}
	const sessions = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		session()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / sessions
	t.Logf("%.0f B allocated per hello-only session", per)
	if per > helloOnlyAllocBudget {
		t.Errorf("%.0f B allocated per hello-only session, want at most %d", per, helloOnlyAllocBudget)
	}
}

// Per-stream footprint bounds, in live heap bytes per open stream once
// each has served one batch (TestStreamFootprint). A stream should cost its
// codec and wire state; a batch's scratch belongs to the session, which
// encodes one batch at a time, so the footprint must not grow with the
// batch size. A stream measured about 1,940 B at universal 256×32 and
// 1,360 B at basexor 64×32, where it held 27.4 KB and 12.5 KB while it
// kept its own batch scratch; each bound leaves about 20% headroom.
const (
	streamFootprintBudget = 2350 // at universal 256×32
	streamFootprintSlope  = 700  // universal 256×32 over basexor 64×32
)

// TestStreamFootprint opens streamFootprintStreams streams on one
// connection, serves one batch on each and bounds the live heap the
// streams hold once a GC has run.
func TestStreamFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("opens 1,000 streams")
	}
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	small := streamFootprint(t, "basexor", 64)
	large := streamFootprint(t, "universal", 256)
	t.Logf("live heap per stream: %.0f B at basexor 64×32, %.0f B at universal 256×32", small, large)
	if large > streamFootprintBudget {
		t.Errorf("universal 256×32: %.0f B per stream, want at most %d", large, streamFootprintBudget)
	}
	if large-small > streamFootprintSlope {
		t.Errorf("universal 256×32 holds %.0f B per stream more than basexor 64×32, want at most %d", large-small, streamFootprintSlope)
	}
}

// streamFootprint returns the live heap bytes per stream that 1,000
// streams of scheme, each served one batch of n 32-byte transactions, hold
// on one connection.
func streamFootprint(t *testing.T, scheme string, n int) float64 {
	const streams = 1000
	srv := startServer(t, testConfig())
	r := dialRaw(t, srv.Addr(), scheme, 32)
	txns := makeTxns(rand.New(rand.NewSource(3)), n, 32)
	// Stream 0's batch grows the connection's buffers before the baseline.
	r.send(trace.FrameBatch, sidBatch(t, 0, 1, txns, 32))
	expectSIDReply(t, r, 0, 1, 32, n)
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	for sid := uint32(1); sid <= streams; sid++ {
		openSibling(t, r, sid, scheme, 32)
		r.send(trace.FrameBatch, sidBatch(t, sid, 1, txns, 32))
		expectSIDReply(t, r, sid, 1, 32, n)
	}
	after := live()
	runtime.KeepAlive(r)
	return float64(int64(after)-int64(before)) / streams
}
