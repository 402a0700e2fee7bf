package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// muxTxns builds one batch of random same-size transactions.
func muxTxns(rng *rand.Rand, n, size int) []trace.Transaction {
	txns := make([]trace.Transaction, n)
	for i := range txns {
		data := make([]byte, size)
		rng.Read(data)
		txns[i] = trace.Transaction{Addr: uint64(i * size), Kind: trace.Read, Data: data}
	}
	return txns
}

// verifyStream drives batches batches through one mux session, decoding
// every record against its source transaction, and returns how many epoch
// bumps it observed (resetting dec on each).
func verifyStream(t *testing.T, s *client.Session, dec core.Codec, seed int64, batches, batchSize int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bumps := 0
	last := s.Epoch()
	decoded := make([]byte, s.TxnSize())
	for bi := 0; bi < batches; bi++ {
		txns := muxTxns(rng, batchSize, s.TxnSize())
		reply, err := s.Transcode(txns)
		if err != nil {
			t.Errorf("stream %d batch %d: Transcode: %v", s.ID(), bi, err)
			return bumps
		}
		if e := s.Epoch(); e != last {
			dec.Reset()
			last = e
			bumps++
		}
		if len(reply.Records) != len(txns) {
			t.Errorf("stream %d batch %d: %d records for %d transactions", s.ID(), bi, len(reply.Records), len(txns))
			return bumps
		}
		for j, rec := range reply.Records {
			e := core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: s.MetaBits()}
			if err := dec.Decode(decoded, &e); err != nil {
				t.Errorf("stream %d batch %d record %d: decode: %v", s.ID(), bi, j, err)
				return bumps
			}
			for k := range decoded {
				if decoded[k] != txns[j].Data[k] {
					t.Errorf("stream %d batch %d record %d: decode mismatch at byte %d", s.ID(), bi, j, k)
					return bumps
				}
			}
		}
	}
	return bumps
}

func muxDecoder(t *testing.T, name string) core.Codec {
	t.Helper()
	dec, err := scheme.New(name)
	if err != nil {
		t.Fatalf("scheme.New(%s): %v", name, err)
	}
	return dec
}

// TestMuxSessionsIndependent is the core multiplexing contract: three
// logical sessions — different schemes, one of them decode-stateful —
// share one TCP connection, run concurrently, and every stream decodes
// byte-identically with zero epoch bumps and zero reconnects. Closing one
// stream leaves its siblings serving.
func TestMuxSessionsIndependent(t *testing.T) {
	srv := startGateway(t)
	m, err := client.NewMux(srv.Addr(), client.Config{})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()

	schemes := []string{"universal", "bdenc", "basexor"}
	sessions := make([]*client.Session, len(schemes))
	for i, name := range schemes {
		if sessions[i], err = m.Open(name, 32); err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
	}
	if got := m.Sessions(); got != 3 {
		t.Fatalf("Sessions() = %d, want 3", got)
	}
	for i, s := range sessions {
		if s.ID() != uint32(i) {
			t.Fatalf("session %d got stream id %d", i, s.ID())
		}
	}

	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *client.Session) {
			defer wg.Done()
			if bumps := verifyStream(t, s, muxDecoder(t, schemes[i]), int64(100+i), 20, 8); bumps != 0 {
				t.Errorf("stream %d: %d epoch bumps, want 0", s.ID(), bumps)
			}
		}(i, s)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := m.Reconnects(); got != 0 {
		t.Fatalf("Reconnects() = %d, want 0", got)
	}

	// Retiring one stream must not disturb its siblings.
	if err := sessions[1].Close(); err != nil {
		t.Fatalf("Session.Close: %v", err)
	}
	if got := m.Sessions(); got != 2 {
		t.Fatalf("Sessions() after close = %d, want 2", got)
	}
	if _, err := sessions[1].Transcode(muxTxns(rand.New(rand.NewSource(1)), 4, 32)); !errors.Is(err, client.ErrMuxClosed) {
		t.Fatalf("Transcode on closed session = %v, want ErrMuxClosed", err)
	}
	if bumps := verifyStream(t, sessions[0], muxDecoder(t, "universal"), 7, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("sibling stream disturbed by close (%d bumps)", bumps)
	}

	// A fresh stream may reuse the freed capacity with a different shape.
	s4, err := m.Open("basexor", 64)
	if err != nil {
		t.Fatalf("Open after close: %v", err)
	}
	if bumps := verifyStream(t, s4, muxDecoder(t, "basexor"), 9, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("late-opened stream failed (%d bumps)", bumps)
	}
}

// helloServer accepts connections, reads each one's Hello, and answers
// HelloOK naming version; it never serves a batch.
func helloServer(t *testing.T, version uint8) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := trace.ReadFrame(conn, nil); err != nil {
					return
				}
				ok := trace.MarshalHelloOK(trace.HelloOK{Version: version, BatchLimit: 4096})
				if err := trace.WriteFrame(conn, trace.FrameHelloOK, ok); err != nil {
					return
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestMuxRequiresV4 pins the client's one Hello check: a HelloOK naming
// any revision other than the one the client speaks fails the handshake
// with ErrServer, on a plain Client and on a Mux alike, instead of running
// a session whose framing the server does not share.
func TestMuxRequiresV4(t *testing.T) {
	for _, v := range []uint8{1, 2, 3, 4, 6} {
		addr := helloServer(t, v)
		if c, err := client.Dial(addr, "universal", 32); !errors.Is(err, client.ErrServer) {
			if c != nil {
				c.Close()
			}
			t.Errorf("Dial against a v%d HelloOK = %v, want ErrServer", v, err)
		}
		m, err := client.NewMux(addr, client.Config{})
		if err != nil {
			t.Fatalf("NewMux: %v", err)
		}
		if _, err := m.Open("universal", 32); !errors.Is(err, client.ErrServer) {
			t.Errorf("Mux.Open against a v%d HelloOK = %v, want ErrServer", v, err)
		}
		m.Close()
	}
}

// TestMuxHandshakeBoundedByDialTimeout pins that a Mux redial holds its
// lock for at most DialTimeout: a server that accepts and never answers
// the Hello must fail Open within DialTimeout, not IOTimeout, since every
// sibling's Open, Close and reply routing waits on that lock.
func TestMuxHandshakeBoundedByDialTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	m, err := client.NewMux(ln.Addr().String(), client.Config{DialTimeout: 200 * time.Millisecond, IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	start := time.Now()
	if _, err := m.Open("universal", 32); err == nil {
		t.Fatal("Open against a silent server succeeded")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("Open against a silent server took %v, want ~200ms (DialTimeout)", waited)
	}
}

// TestTracingConfigHonored checks that Config.Tracer and Config.Trace
// cover every client flavour — a plain Client, mux stream 0 and a further
// mux stream: each Transcode records a client span under LastTraceID with
// frame_write and frame_read stages, feeds the Tracer the same stages, and
// the gateway's /debug/trace serves a span under the same id.
func TestTracingConfigHonored(t *testing.T) {
	srv := startGateway(t)
	ring := obs.NewTraceRing(64)
	tracer := obs.NewHistogramTracer(nil)
	cfg := client.Config{Tracer: tracer, Trace: ring}

	c, err := client.DialConfig(srv.Addr(), "universal", 32, cfg)
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	m, err := client.NewMux(srv.Addr(), cfg)
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	s0, err := m.Open("basexor", 32)
	if err != nil {
		t.Fatalf("Open stream 0: %v", err)
	}
	s1, err := m.Open("bdenc", 32)
	if err != nil {
		t.Fatalf("Open stream 1: %v", err)
	}

	type transcoder interface {
		Transcode([]trace.Transaction) (trace.BatchReply, error)
		Scheme() string
		LastTraceID() uint64
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name string
		c    transcoder
	}{{"direct", c}, {"mux-stream-0", s0}, {"mux-stream-1", s1}} {
		const batches = 3
		for b := 0; b < batches; b++ {
			if _, err := tc.c.Transcode(muxTxns(rng, 8, 32)); err != nil {
				t.Fatalf("%s: Transcode: %v", tc.name, err)
			}
			id := tc.c.LastTraceID()
			spans := ring.Find(id)
			if len(spans) != 1 {
				t.Fatalf("%s: client ring holds %d spans for trace %#x, want 1", tc.name, len(spans), id)
			}
			stages := map[obs.Stage]bool{}
			for _, st := range spans[0].Stages() {
				stages[st.Stage] = true
			}
			if !stages[obs.StageFrameWrite] || !stages[obs.StageFrameRead] {
				t.Fatalf("%s: client span stages = %v, want frame_write and frame_read", tc.name, spans[0].Stages())
			}
			waitGatewaySpan(t, srv.MetricsAddr(), id)
		}
		for _, stage := range []obs.Stage{obs.StageFrameWrite, obs.StageFrameRead} {
			if got := tracer.Hist(tc.c.Scheme(), stage).Count(); got != batches {
				t.Errorf("%s: tracer %s count = %d, want %d", tc.name, stage, got, batches)
			}
		}
	}
}

// waitGatewaySpan polls the gateway's /debug/trace until it serves a span
// under traceID. The gateway records a span once its reply write returns,
// which may be after the client has read the reply.
func waitGatewaySpan(t *testing.T, metricsAddr string, traceID uint64) {
	t.Helper()
	url := "http://" + metricsAddr + "/debug/trace?trace=" + obs.FormatTraceID(traceID)
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		var doc struct {
			Spans []struct {
				TraceID string `json:"trace_id"`
			} `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding /debug/trace: %v", err)
		}
		if len(doc.Spans) == 1 && doc.Spans[0].TraceID == obs.FormatTraceID(traceID) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/trace returned %d spans for %s, want 1", len(doc.Spans), obs.FormatTraceID(traceID))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuxStreamRefusedAtLimit verifies a server-side stream refusal
// surfaces as an Open error carrying the server's message while the
// already-open streams keep serving.
func TestMuxStreamRefusedAtLimit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := config.DefaultServer()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.LogLevel = "error"
	cfg.StreamLimit = 2
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	defer srv.Close()

	m, err := client.NewMux(srv.Addr(), client.Config{})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	s0, err := m.Open("universal", 32)
	if err != nil {
		t.Fatalf("Open 0: %v", err)
	}
	if _, err := m.Open("universal", 32); err != nil {
		t.Fatalf("Open 1: %v", err)
	}
	if _, err := m.Open("universal", 32); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("Open beyond StreamLimit = %v, want a refusal", err)
	}
	if got := m.Sessions(); got != 2 {
		t.Fatalf("Sessions() after refusal = %d, want 2", got)
	}
	if bumps := verifyStream(t, s0, muxDecoder(t, "universal"), 3, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("stream 0 disturbed by sibling refusal (%d bumps)", bumps)
	}
}

// TestMuxRedialReopensStreams breaks the shared connection under two live
// streams — one decode-stateful — and verifies the mux re-dials once,
// every stream re-opens transparently on the replacement connection, and
// every stream's epoch advances exactly once so stateful callers know to
// reset their decoders.
func TestMuxRedialReopensStreams(t *testing.T) {
	srv := startGateway(t)

	var mu sync.Mutex
	var last net.Conn
	var dials atomic.Int32
	mcfg := client.Config{
		MaxRetries: 10,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
			if err == nil {
				mu.Lock()
				last = conn
				mu.Unlock()
				dials.Add(1)
			}
			return conn, err
		},
	}
	m, err := client.NewMux(srv.Addr(), mcfg)
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	su, err := m.Open("universal", 32)
	if err != nil {
		t.Fatalf("Open universal: %v", err)
	}
	sb, err := m.Open("bdenc", 32)
	if err != nil {
		t.Fatalf("Open bdenc: %v", err)
	}
	du, db := muxDecoder(t, "universal"), muxDecoder(t, "bdenc")
	if bumps := verifyStream(t, su, du, 21, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("pre-break universal bumps = %d, want 0", bumps)
	}
	if bumps := verifyStream(t, sb, db, 22, 5, 8); bumps != 0 || t.Failed() {
		t.Fatalf("pre-break bdenc bumps = %d, want 0", bumps)
	}

	// Sever the shared connection out from under both streams.
	eu0, eb0 := su.Epoch(), sb.Epoch()
	mu.Lock()
	last.Close()
	mu.Unlock()

	// The first post-break batch (on the bdenc stream) triggers the one
	// redial; the stream observes its own epoch bump mid-verify and resets
	// its decoder.
	if bumps := verifyStream(t, sb, db, 23, 10, 8); bumps != 1 || t.Failed() {
		t.Fatalf("post-break bdenc bumps = %d, want 1", bumps)
	}
	if got := sb.Epoch(); got != eb0+1 {
		t.Fatalf("bdenc epoch = %d, want %d", got, eb0+1)
	}
	// The sibling's epoch advanced with the same redial — before its own
	// next batch, exactly so stateful callers reset before decoding.
	if got := su.Epoch(); got != eu0+1 {
		t.Fatalf("universal epoch = %d, want %d (redial must bump every stream)", got, eu0+1)
	}
	du.Reset()
	if bumps := verifyStream(t, su, du, 24, 10, 8); bumps != 0 || t.Failed() {
		t.Fatalf("universal stream broken after redial (%d bumps)", bumps)
	}
	if got := m.Reconnects(); got != 1 {
		t.Fatalf("Reconnects() = %d, want 1", got)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dialer invoked %d times, want 2", got)
	}
}

// fakeGateway serves a scripted BXTP peer: it answers every Hello with a
// v4 HelloOK and hands each later frame to answer, with the connection's
// ordinal (1 for the first). An error from answer closes the connection.
func fakeGateway(t *testing.T, answer func(conn net.Conn, n int, ft trace.FrameType, body []byte) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for n := 1; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(n int) {
				defer conn.Close()
				if _, _, err := trace.ReadFrame(conn, nil); err != nil {
					return
				}
				ok := trace.MarshalHelloOK(trace.HelloOK{Version: trace.ProtocolVersion, BatchLimit: 64})
				if err := trace.WriteFrame(conn, trace.FrameHelloOK, ok); err != nil {
					return
				}
				for {
					ft, body, err := trace.ReadFrame(conn, nil)
					if err != nil || answer(conn, n, ft, body) != nil {
						return
					}
				}
			}(n)
		}
	}()
	return ln.Addr().String()
}

// TestMuxDamagedStreamOpenFailsConnection pins that a StreamOpenOK with a
// status no gateway sends is a damaged verdict, not a refusal: whether the
// stream opened is unknown, so Mux.Open fails the connection (as
// bxtproxy's backend leg does with the same answer) and the next Open
// redials.
func TestMuxDamagedStreamOpenFailsConnection(t *testing.T) {
	addr := fakeGateway(t, func(conn net.Conn, n int, ft trace.FrameType, body []byte) error {
		o, err := trace.ParseStreamOpen(body)
		if ft != trace.FrameStreamOpen || err != nil {
			return errors.New("unexpected frame")
		}
		verdict := trace.StreamOpenOK{ID: o.ID, Status: trace.StreamOK, BatchLimit: 64}
		if n == 1 {
			verdict = trace.StreamOpenOK{ID: o.ID, Status: 7, Msg: "damaged"}
		}
		return trace.WriteFrame(conn, trace.FrameStreamOpenOK, trace.MarshalStreamOpenOK(verdict))
	})
	m, err := client.NewMux(addr, client.Config{})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	if _, err := m.Open("universal", 32); err != nil {
		t.Fatalf("open stream 0: %v", err)
	}
	_, err = m.Open("universal", 32)
	if err == nil || errors.Is(err, client.ErrServer) || !errors.Is(err, trace.ErrBadFrame) {
		t.Fatalf("open answered with status 7 = %v, want a damaged frame (ErrBadFrame), not a refusal", err)
	}
	if _, err := m.Open("universal", 32); err != nil {
		t.Fatalf("open after the damaged verdict: %v", err)
	}
	if got := m.Reconnects(); got != 1 {
		t.Errorf("Reconnects = %d, want 1: the damaged verdict must fail the connection", got)
	}
}

// TestMuxErrorFrameFailsConnection pins the mux reader's handling of an
// Error frame: it names no stream, even when its text's first four bytes
// spell an open stream's id, so the reader fails the whole connection with
// the server's text and every waiting session sees ErrServer.
func TestMuxErrorFrameFailsConnection(t *testing.T) {
	const text = "\x01\x00\x00\x00 server is draining"
	addr := fakeGateway(t, func(conn net.Conn, _ int, ft trace.FrameType, body []byte) error {
		switch ft {
		case trace.FrameStreamOpen:
			o, err := trace.ParseStreamOpen(body)
			if err != nil {
				return err
			}
			ok := trace.StreamOpenOK{ID: o.ID, Status: trace.StreamOK, BatchLimit: 64}
			return trace.WriteFrame(conn, trace.FrameStreamOpenOK, trace.MarshalStreamOpenOK(ok))
		case trace.FrameBatch:
			trace.WriteFrame(conn, trace.FrameError, []byte(text))
		}
		return errors.New("closing")
	})
	m, err := client.NewMux(addr, client.Config{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	s0, err := m.Open("universal", 32)
	if err != nil {
		t.Fatalf("open stream 0: %v", err)
	}
	if _, err := m.Open("universal", 32); err != nil {
		t.Fatalf("open stream 1: %v", err)
	}
	_, err = s0.Transcode(muxTxns(rand.New(rand.NewSource(1)), 4, 32))
	if !errors.Is(err, client.ErrServer) || !strings.Contains(err.Error(), "server is draining") {
		t.Fatalf("batch answered with an Error frame = %v, want ErrServer carrying the server's text", err)
	}
}

// TestMuxStreamExchange pins the raw request step a relay drives. Stream
// registers a session under a chosen id without sending anything, and
// Exchange sends one whole frame and returns the answer the mux routed to
// that stream, whole. bxtd here kills a stream after two faults with an
// unprompted StreamClosed: it must reach stream 1, at the latest as the
// answer to stream 1's next batch, and never stream 0's batch; a re-open
// skips a StreamClosed still pending. A session Stream registered sends
// nothing on Close, so closing one that never opened leaves the
// connection serving.
func TestMuxStreamExchange(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := config.DefaultServer()
	cfg.ListenAddr, cfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	cfg.LogLevel = "error"
	cfg.FaultBudget = 2
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	defer srv.Close()

	m, err := client.NewMux(srv.Addr(), client.Config{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	if _, _, err := m.Stream(1); err == nil {
		t.Fatal("Stream before the first Open succeeded; it must not dial")
	}
	s0, err := m.Open("basexor", 32)
	if err != nil {
		t.Fatalf("open stream 0: %v", err)
	}
	s1, registered, err := m.Stream(1)
	if err != nil || registered {
		t.Fatalf("Stream(1) = registered %v, err %v; want a new session", registered, err)
	}
	if again, registered, _ := m.Stream(1); again != s1 || !registered {
		t.Fatalf("a second Stream(1) returned another session (registered %v)", registered)
	}

	const timeout = 5 * time.Second
	rng := rand.New(rand.NewSource(7))
	exchange := func(s *client.Session, ft trace.FrameType, body []byte) (trace.FrameType, []byte) {
		t.Helper()
		frame, err := trace.AppendFrame(nil, ft, body)
		if err != nil {
			t.Fatal(err)
		}
		aft, abody, whole, err := s.Exchange(frame, timeout)
		if err != nil {
			t.Fatalf("stream %d: exchanging frame %#x: %v", s.ID(), ft, err)
		}
		if len(whole) != trace.FrameHeaderBytes+len(abody) || trace.FrameType(whole[4]) != aft ||
			string(whole[trace.FrameHeaderBytes:]) != string(abody) {
			t.Fatalf("stream %d: the whole answer frame does not hold its type and body", s.ID())
		}
		return aft, append([]byte(nil), abody...)
	}
	open := func() {
		t.Helper()
		body, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: 1, TxnSize: 32, Scheme: "bdenc"})
		if err != nil {
			t.Fatal(err)
		}
		ft, ans := exchange(s1, trace.FrameStreamOpen, body)
		if a, err := trace.CheckStreamOpen(ft, ans, 1); err != nil || a.Kind != trace.AnswerOK {
			t.Fatalf("opening stream 1: frame %#x, %+v, err %v", ft, a, err)
		}
		s1.Release()
	}
	batch := func(sid uint32, id uint64, payload []byte) []byte {
		body := trace.AppendTraceEnvelope(trace.AppendStreamID(nil, sid), id, id)
		body = append(body, payload...)
		if err := trace.SealBatchEnvelope(body[4:]); err != nil {
			t.Fatal(err)
		}
		return body
	}
	good := func(sid uint32, id uint64) []byte {
		payload, err := trace.AppendBatch(nil, muxTxns(rng, 8, 32), 32)
		if err != nil {
			t.Fatal(err)
		}
		return batch(sid, id, payload)
	}
	answer := func(s *client.Session, body []byte, id uint64) trace.Answer {
		t.Helper()
		ft, ans := exchange(s, trace.FrameBatch, body)
		a, err := trace.CheckBatch(ft, ans, s.ID(), id, id)
		if err != nil {
			t.Fatalf("stream %d batch %d: frame %#x: %v", s.ID(), id, ft, err)
		}
		return a
	}

	open()
	for id := uint64(1); id <= 2; id++ {
		if a := answer(s1, batch(1, id, []byte("not a batch body")), id); a.Kind != trace.AnswerFault {
			t.Fatalf("garbage batch %d on stream 1 answered %+v, want a BatchError", id, a)
		}
	}
	if a := answer(s0, good(0, 1), 1); a.Kind != trace.AnswerOK {
		t.Fatalf("stream 0's batch after stream 1's kill answered %+v, want its reply", a)
	}
	if a := answer(s1, good(1, 3), 3); a.Kind != trace.AnswerKilled {
		t.Fatalf("stream 1's batch after its kill answered %+v, want the kill", a)
	}
	// Killed again with its notice still pending, then re-opened: the
	// open's answer is its verdict, not the notice.
	open()
	for id := uint64(4); id <= 5; id++ {
		answer(s1, batch(1, id, []byte("not a batch body")), id)
	}
	open()
	if a := answer(s1, good(1, 6), 6); a.Kind != trace.AnswerOK {
		t.Fatalf("stream 1's batch after its re-open answered %+v, want its reply", a)
	}

	s2, _, err := m.Stream(2)
	if err != nil {
		t.Fatalf("Stream(2): %v", err)
	}
	s2.Close()
	if _, _, _, err := s2.Exchange([]byte{1, 0, 0, 0, byte(trace.FrameBatch)}, timeout); !errors.Is(err, client.ErrMuxClosed) {
		t.Fatalf("Exchange on a closed session = %v, want ErrMuxClosed", err)
	}
	if a := answer(s0, good(0, 2), 2); a.Kind != trace.AnswerOK {
		t.Fatalf("stream 0 after closing an unopened stream answered %+v, want its reply", a)
	}
	m.Close()
	if _, _, err := m.Stream(3); !errors.Is(err, client.ErrMuxClosed) {
		t.Fatalf("Stream on a closed mux = %v, want ErrMuxClosed", err)
	}
}
