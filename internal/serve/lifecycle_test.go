package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/serve"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/trace"
)

// tierHost is the lifecycle surface bxtd and bxtproxy both export.
type tierHost interface {
	Start() error
	Addr() string
	MetricsAddr() string
	Shutdown(context.Context) error
	Close() error
}

// tierOpts are the connection-host settings the lifecycle table varies.
type tierOpts struct {
	maxConns     int
	writeTimeout time.Duration
	streamLimit  int
}

// backendConfig serves the debug routes too, so the /debug/trace tests
// reach both tiers' rings.
func backendConfig() config.Server {
	cfg := config.DefaultServer()
	cfg.ListenAddr, cfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	cfg.LogLevel = "error"
	cfg.Debug = true
	return cfg
}

func newBxtd(t *testing.T, o tierOpts) tierHost {
	cfg := backendConfig()
	cfg.MaxConns, cfg.WriteTimeout, cfg.StreamLimit = o.maxConns, o.writeTimeout, o.streamLimit
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return srv
}

// newBxtproxy fronts one live bxtd backend.
func newBxtproxy(t *testing.T, o tierOpts) tierHost {
	backend, err := server.New(backendConfig())
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := backend.Start(); err != nil {
		t.Fatalf("backend Start: %v", err)
	}
	t.Cleanup(func() { backend.Close() })
	cfg := config.DefaultProxy()
	cfg.ListenAddr, cfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	cfg.Backends = []string{backend.Addr()}
	cfg.LogLevel = "error"
	cfg.Debug = true
	cfg.MaxConns, cfg.WriteTimeout, cfg.StreamLimit = o.maxConns, o.writeTimeout, o.streamLimit
	px, err := proxy.New(cfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	return px
}

var tiers = []struct {
	name  string
	build func(*testing.T, tierOpts) tierHost
}{
	{"bxtd", newBxtd},
	{"bxtproxy", newBxtproxy},
}

// forEachTier runs fn against a fresh, unstarted instance of each tier;
// the instance is closed when the subtest ends.
func forEachTier(t *testing.T, o tierOpts, fn func(t *testing.T, h tierHost)) {
	for _, tc := range tiers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := tc.build(t, o)
			t.Cleanup(func() { h.Close() })
			fn(t, h)
		})
	}
}

func defaultOpts() tierOpts {
	return tierOpts{maxConns: 16, writeTimeout: 5 * time.Second, streamLimit: 4096}
}

// TestLifecycleStart pins the listener lifecycle: no address before Start,
// both addresses after it, and a second Start refused.
func TestLifecycleStart(t *testing.T) {
	forEachTier(t, defaultOpts(), func(t *testing.T, h tierHost) {
		if a, m := h.Addr(), h.MetricsAddr(); a != "" || m != "" {
			t.Fatalf("before Start: Addr %q, MetricsAddr %q, want both empty", a, m)
		}
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		if h.Addr() == "" || h.MetricsAddr() == "" {
			t.Fatalf("after Start: Addr %q, MetricsAddr %q, want both bound", h.Addr(), h.MetricsAddr())
		}
		if err := h.Start(); err == nil {
			t.Fatal("second Start succeeded, want error")
		}
	})
}

// TestLifecycleConnectionCap verifies that a session beyond MaxConns is
// refused with an Error frame naming capacity, and that the slot frees
// once the first client closes.
func TestLifecycleConnectionCap(t *testing.T) {
	o := defaultOpts()
	o.maxConns = 1
	forEachTier(t, o, func(t *testing.T, h tierHost) {
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		c1, err := client.Dial(h.Addr(), "universal", 32)
		if err != nil {
			t.Fatalf("Dial 1: %v", err)
		}
		defer c1.Close()
		_, err = client.Dial(h.Addr(), "universal", 32)
		if !errors.Is(err, client.ErrServer) || !strings.Contains(err.Error(), "capacity") {
			t.Fatalf("Dial 2 = %v, want capacity refusal", err)
		}
		c1.Close()
		// The slot frees asynchronously as the session unwinds.
		deadline := time.Now().Add(5 * time.Second)
		for {
			c3, err := client.Dial(h.Addr(), "universal", 32)
			if err == nil {
				c3.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("slot never freed: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestLifecycleShutdownForceClose holds a session mid-batch and lets the
// drain budget expire: Shutdown must force-close the session and return
// context.DeadlineExceeded, long before the session's own write deadline
// would have freed it.
//
// The client pipelines batches and never reads a reply, so the tier's
// reply write blocks once the socket buffers fill, and a blocked write
// is not woken by the drain's read deadlines.
func TestLifecycleShutdownForceClose(t *testing.T) {
	o := defaultOpts()
	o.writeTimeout = 30 * time.Second
	forEachTier(t, o, func(t *testing.T, h tierHost) {
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		conn, err := net.Dial("tcp", h.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		// A small receive window fills after a few replies.
		conn.(*net.TCPConn).SetReadBuffer(16 << 10)
		const txnSize, perBatch = 32, 4096
		hello, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: txnSize, Scheme: "universal"})
		if err != nil {
			t.Fatalf("MarshalHello: %v", err)
		}
		br := bufio.NewReader(conn)
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := trace.WriteFrame(conn, trace.FrameHello, hello); err != nil {
			t.Fatalf("write hello: %v", err)
		}
		if ft, body, err := trace.ReadFrame(br, nil); err != nil || ft != trace.FrameHelloOK {
			t.Fatalf("hello answered with frame %#x (%q), err %v", ft, body, err)
		}
		conn.SetDeadline(time.Time{})

		txns := make([]trace.Transaction, perBatch)
		for i := range txns {
			data := make([]byte, txnSize)
			for j := range data {
				data[j] = byte(i*7 + j)
			}
			txns[i] = trace.Transaction{Addr: uint64(i * txnSize), Data: data}
		}
		var sent atomic.Int64
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for id := uint64(1); ; id++ {
				body := trace.AppendTraceEnvelope(trace.AppendStreamID(nil, 0), id, id)
				body, err := trace.AppendBatch(body, txns, txnSize)
				if err == nil {
					err = trace.SealBatchEnvelope(body[4:])
				}
				if err == nil {
					err = trace.WriteFrame(conn, trace.FrameBatch, body)
				}
				if err != nil {
					return // the tier closed the connection
				}
				sent.Add(1)
			}
		}()

		// Once the writer has made no progress for a while the tier has
		// stopped reading: it is stuck writing a reply nobody reads. The
		// quiet window is long enough for a slow (race-detector) tier to
		// finish the batch it is working on.
		deadline := time.Now().Add(20 * time.Second)
		last, quiet := int64(-1), 0
		for quiet < 10 {
			time.Sleep(50 * time.Millisecond)
			if n := sent.Load(); n > 0 && n == last {
				quiet++
			} else {
				last, quiet = n, 0
			}
			if time.Now().After(deadline) {
				t.Fatalf("writer never stalled (%d batches sent)", last)
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		err = h.Shutdown(ctx)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("Shutdown took %v; the stuck session was not force-closed", took)
		}
		// The force-closed connection ends: the client reads what was
		// already sent, then an error, and its writer fails too.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.Copy(io.Discard, br); err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Fatal("connection still open after Shutdown returned")
			}
		}
		select {
		case <-writerDone:
		case <-time.After(10 * time.Second):
			t.Fatal("client writer still blocked after Shutdown returned")
		}
	})
}

// rawSession speaks BXTP to a tier frame by frame.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// dialRaw opens a session on addr without completing the handshake.
func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawSession{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (r *rawSession) send(ft trace.FrameType, body []byte) {
	r.t.Helper()
	if err := trace.WriteFrame(r.conn, ft, body); err != nil {
		r.t.Fatalf("write frame %#x: %v", byte(ft), err)
	}
}

// next reads one frame, which must be a want frame.
func (r *rawSession) next(want trace.FrameType) []byte {
	r.t.Helper()
	ft, body, err := trace.ReadFrame(r.br, nil)
	if err != nil {
		r.t.Fatalf("read frame: %v", err)
	}
	if ft != want {
		r.t.Fatalf("got frame %#x (%q), want %#x", byte(ft), body, byte(want))
	}
	return body
}

// hello sends a universal/32 Hello; the tier answers it.
func (r *rawSession) hello() {
	r.t.Helper()
	body, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: 32, Scheme: "universal"})
	if err != nil {
		r.t.Fatalf("MarshalHello: %v", err)
	}
	r.send(trace.FrameHello, body)
}

// open asks for stream id and returns the tier's verdict.
func (r *rawSession) open(id uint32) trace.StreamOpenOK {
	r.t.Helper()
	body, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: id, TxnSize: 32, Scheme: "universal"})
	if err != nil {
		r.t.Fatalf("MarshalStreamOpen: %v", err)
	}
	r.send(trace.FrameStreamOpen, body)
	ok, err := trace.ParseStreamOpenOK(r.next(trace.FrameStreamOpenOK))
	if err != nil {
		r.t.Fatalf("ParseStreamOpenOK: %v", err)
	}
	if ok.ID != id {
		r.t.Fatalf("verdict for stream %d, want %d", ok.ID, id)
	}
	return ok
}

// closed reads a StreamClosed frame and returns its stream id and cause.
func (r *rawSession) closed() (uint32, string) {
	r.t.Helper()
	sid, msg, err := trace.ParseStreamClosed(r.next(trace.FrameStreamClosed))
	if err != nil {
		r.t.Fatalf("ParseStreamClosed: %v", err)
	}
	return sid, msg
}

// metric returns the value of the unlabelled series whose name ends in
// "_"+family on addr's /metrics, or -1 when there is none.
func metric(t *testing.T, addr, family string) int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if ok && strings.HasSuffix(name, "_"+family) {
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", sc.Text(), err)
			}
			return v
		}
	}
	return -1
}

// awaitMetric polls family on addr's /metrics until it reads want.
func awaitMetric(t *testing.T, addr, family string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := metric(t, addr, family)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", family, got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLifecycleStreamTable runs the stream table's verdicts on both tiers:
// an open, a duplicate id and an open past StreamLimit answered by
// StreamOpenOK; a close answered by StreamClosed and a close of an unknown
// id by an Error frame, every refusal in the same words on both tiers; a batch for an unknown id answered by StreamClosed
// "unknown stream"; and streams_open back at 0 once the session ends and
// once a drain has closed a live one.
func TestLifecycleStreamTable(t *testing.T) {
	o := defaultOpts()
	o.streamLimit = 3
	forEachTier(t, o, func(t *testing.T, h tierHost) {
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		c := dialRaw(t, h.Addr())
		c.hello()
		c.next(trace.FrameHelloOK)
		if ok := c.open(1); ok.Status != trace.StreamOK {
			t.Fatalf("open 1: status %d (%q), want OK", ok.Status, ok.Msg)
		}
		if ok := c.open(1); ok.Status != trace.StreamRefused || ok.Msg != "stream 1 is already open" {
			t.Fatalf("duplicate open 1: status %d (%q), want refused", ok.Status, ok.Msg)
		}
		if ok := c.open(2); ok.Status != trace.StreamOK {
			t.Fatalf("open 2: status %d (%q), want OK", ok.Status, ok.Msg)
		}
		if ok := c.open(3); ok.Status != trace.StreamRefused || ok.Msg != "stream limit 3 reached" {
			t.Fatalf("open 3 past the limit: status %d (%q), want refused", ok.Status, ok.Msg)
		}

		body := trace.AppendTraceEnvelope(trace.AppendStreamID(nil, 9), 1, 1)
		body, err := trace.AppendBatch(body, []trace.Transaction{{Data: make([]byte, 32)}}, 32)
		if err == nil {
			err = trace.SealBatchEnvelope(body[4:])
		}
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		c.send(trace.FrameBatch, body)
		if sid, msg := c.closed(); sid != 9 || msg != "unknown stream" {
			t.Fatalf("batch for unknown stream answered StreamClosed(%d, %q)", sid, msg)
		}

		c.send(trace.FrameStreamClose, trace.MarshalStreamClose(2))
		if sid, msg := c.closed(); sid != 2 || msg != "" {
			t.Fatalf("close 2 answered StreamClosed(%d, %q)", sid, msg)
		}
		if got := metric(t, h.MetricsAddr(), "streams_open"); got != 2 {
			t.Fatalf("streams_open = %d with streams 0 and 1 open, want 2", got)
		}
		c.send(trace.FrameStreamClose, trace.MarshalStreamClose(2))
		if msg := string(c.next(trace.FrameError)); msg != "close of unknown stream 2" {
			t.Fatalf("close of unknown stream 2 answered Error %q", msg)
		}
		awaitMetric(t, h.MetricsAddr(), "streams_open", 0)

		c2 := dialRaw(t, h.Addr())
		c2.hello()
		c2.next(trace.FrameHelloOK)
		if ok := c2.open(1); ok.Status != trace.StreamOK {
			t.Fatalf("second session: open 1: status %d (%q), want OK", ok.Status, ok.Msg)
		}
		if got := metric(t, h.MetricsAddr(), "streams_open"); got != 2 {
			t.Fatalf("streams_open = %d on the second session, want 2", got)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := h.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		for family, want := range map[string]int64{"streams_open": 0, "streams_total": 5, "stream_refused_total": 2} {
			if got := metric(t, h.MetricsAddr(), family); got != want {
				t.Errorf("after the drain: %s = %d, want %d", family, got, want)
			}
		}
	})
}

// TestLifecycleMalformedStreamFrames sends each tier a StreamOpen, a
// StreamClose and a Batch whose bodies are too short to parse: each is a
// protocol violation, answered by an Error frame.
func TestLifecycleMalformedStreamFrames(t *testing.T) {
	forEachTier(t, defaultOpts(), func(t *testing.T, h tierHost) {
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		for _, ft := range []trace.FrameType{trace.FrameStreamOpen, trace.FrameStreamClose, trace.FrameBatch} {
			c := dialRaw(t, h.Addr())
			c.hello()
			c.next(trace.FrameHelloOK)
			c.send(ft, []byte{1})
			c.next(trace.FrameError)
		}
		awaitMetric(t, h.MetricsAddr(), "streams_open", 0)
	})
}

// hookTierConns wraps, through serve.SetConnHook, every connection a tier
// accepts on the address last passed to the returned setter; the
// connections of a proxy's backend are left alone.
func hookTierConns(t *testing.T, wrap func(net.Conn) net.Conn) (setAddr func(string)) {
	var addr atomic.Value
	addr.Store("")
	serve.SetConnHook(func(c net.Conn) net.Conn {
		if c.LocalAddr().String() == addr.Load().(string) {
			return wrap(c)
		}
		return c
	})
	t.Cleanup(func() { serve.SetConnHook(nil) }) // runs after every tier closes
	return func(a string) { addr.Store(a) }
}

// failingConn fails every Write.
type failingConn struct{ net.Conn }

func (failingConn) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// TestLifecycleFailedHelloOKWrite tears a session down on its first
// write, the HelloOK: the Hello's stream must leave streams_open with the
// session.
func TestLifecycleFailedHelloOKWrite(t *testing.T) {
	setAddr := hookTierConns(t, func(c net.Conn) net.Conn { return failingConn{c} })
	forEachTier(t, defaultOpts(), func(t *testing.T, h tierHost) {
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		setAddr(h.Addr())
		c := dialRaw(t, h.Addr())
		c.hello()
		if ft, body, err := trace.ReadFrame(c.br, nil); err == nil {
			t.Fatalf("the tier answered frame %#x (%q) through a failing connection", byte(ft), body)
		}
		awaitMetric(t, h.MetricsAddr(), "connections_active", 0)
		if got := metric(t, h.MetricsAddr(), "streams_open"); got != 0 {
			t.Fatalf("streams_open = %d once the session is gone, want 0", got)
		}
	})
}

// writeGate holds the next Write on a wrapped connection once armed.
type writeGate struct {
	mu      sync.Mutex
	entered chan struct{} // closed when the held Write begins
	release chan struct{} // closed to let it finish
}

// arm makes the next Write through the gate wait for release.
func (g *writeGate) arm() (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entered, g.release = make(chan struct{}), make(chan struct{})
	return g.entered, sync.OnceFunc(func() { close(g.release) })
}

type gatedConn struct {
	net.Conn
	g *writeGate
}

func (c gatedConn) Write(p []byte) (int, error) {
	c.g.mu.Lock()
	entered, release := c.g.entered, c.g.release
	c.g.entered = nil
	c.g.mu.Unlock()
	if entered != nil {
		close(entered)
		<-release
	}
	return c.Conn.Write(p)
}

// TestDebugTraceAwaitsReplyWrite pins the /debug/trace and /metrics
// barrier on both tiers: while a reply write is in progress (its span not
// yet recorded), both handlers wait, and once the write finishes they
// answer with that reply's span counted.
func TestDebugTraceAwaitsReplyWrite(t *testing.T) {
	gate := new(writeGate)
	setAddr := hookTierConns(t, func(c net.Conn) net.Conn { return gatedConn{Conn: c, g: gate} })
	forEachTier(t, defaultOpts(), func(t *testing.T, h tierHost) {
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		setAddr(h.Addr())
		c, err := client.Dial(h.Addr(), "universal", 32)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		txns := []trace.Transaction{{Data: make([]byte, 32)}, {Addr: 32, Data: make([]byte, 32)}}
		if _, err := c.Transcode(txns); err != nil {
			t.Fatalf("Transcode: %v", err)
		}

		entered, release := gate.arm()
		defer release()
		transcoded := make(chan error, 1)
		go func() {
			_, err := c.Transcode(txns)
			transcoded <- err
		}()
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("the second reply was never written")
		}
		type traced struct {
			path  string
			total uint64
			err   error
		}
		done := make(chan traced, 2)
		for _, path := range []string{"/debug/trace", "/metrics"} {
			go func() {
				total, err := spansTotal(h.MetricsAddr(), path)
				done <- traced{path, total, err}
			}()
		}
		select {
		case got := <-done:
			t.Fatalf("%s answered (total %d, err %v) while a reply write was in progress", got.path, got.total, got.err)
		case <-time.After(100 * time.Millisecond):
		}
		release()
		for range 2 {
			select {
			case got := <-done:
				if got.err != nil {
					t.Fatalf("GET %s: %v", got.path, got.err)
				}
				if got.total != 2 {
					t.Fatalf("%s span total = %d once both replies were written, want 2", got.path, got.total)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a scrape did not answer once the write finished")
			}
		}
		if err := <-transcoded; err != nil {
			t.Fatalf("second Transcode: %v", err)
		}
	})
}

// spansTotal reads a tier's recorded span count from path: the total of
// /debug/trace's JSON, or /metrics's trace_spans_total family.
func spansTotal(addr, path string) (uint64, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if path == "/metrics" {
		m := regexp.MustCompile(`(?m)^\w+_trace_spans_total (\d+)$`).FindSubmatch(body)
		if m == nil {
			return 0, errors.New("no trace_spans_total family")
		}
		return strconv.ParseUint(string(m[1]), 10, 64)
	}
	var doc struct {
		Total uint64 `json:"total"`
	}
	err = json.Unmarshal(body, &doc)
	return doc.Total, err
}
