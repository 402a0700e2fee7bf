package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/trace"
)

// echoSession is a minimal tier session: it answers a good Hello with
// HelloOK, then reads frames until the Reader's verdict, which it answers
// as both tiers do (Writer.Refuse): with an Error frame unless it wraps
// ErrEnd.
type echoSession struct {
	conn net.Conn
	in   Reader
	w    *Writer
}

func (e *echoSession) Writer() *Writer { return e.w }

func (e *echoSession) Serve() {
	defer e.conn.Close()
	if _, err := e.in.Hello(); err != nil {
		e.w.Refuse(err)
		return
	}
	e.w.Send(trace.FrameHelloOK, trace.MarshalHelloOK(trace.HelloOK{Version: trace.ProtocolVersion}))
	for {
		if _, _, _, err := e.in.Next(); err != nil {
			e.w.Refuse(err)
			return
		}
	}
}

func startEcho(t *testing.T, readTimeout time.Duration) *Host[*echoSession] {
	t.Helper()
	cfg := config.DefaultServer().Listener
	cfg.ListenAddr, cfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	cfg.LogLevel = "error"
	cfg.ReadTimeout = readTimeout
	var h *Host[*echoSession]
	h, err := New(cfg, Tier[*echoSession]{
		Name:          "echo",
		MetricsPrefix: "echo_",
		Open: func(conn net.Conn, id uint64) *echoSession {
			return &echoSession{conn: conn, in: h.NewReader(conn), w: h.NewWriter(conn)}
		},
		Routes:  func(*http.ServeMux) {},
		Metrics: func(w io.Writer) { fmt.Fprintln(w, "echo_tier 1") },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := h.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func helloBody(t *testing.T, version uint8) []byte {
	t.Helper()
	body, err := trace.MarshalHello(trace.Hello{Version: version, TxnSize: 32, Scheme: "universal"})
	if err != nil {
		t.Fatalf("MarshalHello: %v", err)
	}
	return body
}

// TestReaderVerdicts pins the Hello check and the frame-read verdicts:
// each failure reaches the client as an Error frame naming it, and a
// clean close ends the session without one. So does a Hello that may be
// damaged — one that fails its seal, or a sealed Hello under another
// frame type — which a requester must not read as a refusal.
func TestReaderVerdicts(t *testing.T) {
	h := startEcho(t, 100*time.Millisecond)
	frame := func(ft trace.FrameType, body []byte) []byte {
		var b strings.Builder
		trace.WriteFrame(&b, ft, body)
		return []byte(b.String())
	}
	hello := frame(trace.FrameHello, helloBody(t, trace.ProtocolVersion))
	damaged := bytes.Clone(hello)
	damaged[len(damaged)-6] ^= 0x20 // a letter of the scheme name
	cases := []struct {
		name string
		send [][]byte // written in order; nil means half-close
		want string   // Error text; "" wants a close without one
	}{
		{"not a hello", [][]byte{frame(trace.FrameBatch, []byte{0})}, "expected hello frame, got 0x"},
		{"bad hello body", [][]byte{frame(trace.FrameHello, []byte("junk"))}, "malformed protocol frame"},
		{"old version", [][]byte{frame(trace.FrameHello, helloBody(t, 3))}, fmt.Sprintf("unsupported protocol version 3 (serving %d)", trace.ProtocolVersion)},
		{"damaged hello", [][]byte{damaged}, ""},
		{"hello under another type", [][]byte{frame(trace.FrameBatch, helloBody(t, trace.ProtocolVersion))}, ""},
		{"clean close", [][]byte{hello, nil}, ""},
		{"implausible length", [][]byte{hello, {0xff, 0xff, 0xff, 0xff, 1}}, "implausible frame length"},
		{"idle client", [][]byte{hello}, "idle timeout waiting for frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", h.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			for _, b := range tc.send {
				if b == nil {
					conn.(*net.TCPConn).CloseWrite()
					continue
				}
				if _, err := conn.Write(b); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			br := bufio.NewReader(conn)
			var got string
			for {
				ft, body, err := trace.ReadFrame(br, nil)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if ft == trace.FrameError {
					got = string(body)
				}
			}
			if tc.want == "" && got != "" || !strings.Contains(got, tc.want) {
				t.Errorf("Error frame %q, want %q", got, tc.want)
			}
		})
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// refusal dials the host and returns the Error frame it is refused with.
func refusal(t *testing.T, addr string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	ft, body, err := trace.ReadFrame(conn, nil)
	if err != nil || ft != trace.FrameError {
		t.Fatalf("refusal answered with frame %#x (%q), err %v", ft, body, err)
	}
	return string(body)
}

// TestLameDuckAndDrain walks the host's refusal states: serving, then
// lame-duck (health 503, new connections refused, established ones kept),
// then draining (Go's loops stopped and waited for, no new ones started).
func TestLameDuckAndDrain(t *testing.T) {
	h := startEcho(t, 5*time.Second)
	metrics := "http://" + h.MetricsAddr()
	if code, body := httpGet(t, metrics+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	held, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer held.Close()
	held.SetDeadline(time.Now().Add(5 * time.Second))
	trace.WriteFrame(held, trace.FrameHello, helloBody(t, trace.ProtocolVersion))
	if ft, _, err := trace.ReadFrame(held, nil); err != nil || ft != trace.FrameHelloOK {
		t.Fatalf("hello answered with frame %#x, err %v", ft, err)
	}

	loopDone := make(chan struct{})
	h.Go(func() { <-h.Stopping(); close(loopDone) })

	h.BeginLameDuck()
	h.BeginLameDuck() // idempotent
	if code, body := httpGet(t, metrics+"/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("lame-duck /healthz = %d %q, want 503 draining", code, body)
	}
	if got := refusal(t, h.Addr()); got != "echo is draining" {
		t.Fatalf("lame-duck refusal %q, want %q", got, "echo is draining")
	}
	_, exp := httpGet(t, metrics+"/metrics")
	for _, want := range []string{"echo_draining 1\n", "echo_connections_active 1\n", "echo_connections_total 2\n", "echo_connections_rejected_total 0\n", "echo_tier 1\n"} {
		if !strings.Contains(exp, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, exp)
		}
	}
	if n := len(h.Sessions()); n != 1 {
		t.Fatalf("%d live sessions in lame-duck, want the held one", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-loopDone:
	default:
		t.Fatal("Shutdown returned before Go's loop ended")
	}
	var late atomic.Bool
	h.Go(func() { late.Store(true) })
	if h.Active() != 0 || len(h.Sessions()) != 0 {
		t.Fatalf("after Shutdown: %d active, %d registered sessions", h.Active(), len(h.Sessions()))
	}
	// The drain woke the idle held session, which closed without an Error.
	if _, _, err := trace.ReadFrame(held, nil); err != io.EOF {
		t.Fatalf("held session read err %v, want EOF", err)
	}
	h.Close() // waits for anything Go started
	if late.Load() {
		t.Fatal("Go started a loop after the drain")
	}
}

// writeLog is a connection that records each Write it is given.
type writeLog struct {
	net.Conn
	writes [][]byte
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *writeLog) SetWriteDeadline(time.Time) error { return nil }

// TestWriterHoldsBurst pins the Writer's burst rule: while hold is set,
// frames wait in the block and leave in order in one Write, each done
// running after it with the time from when its frame was ready; a block
// that reaches maxBlock is written at once, on a frame boundary; outside a
// burst a frame is written at once.
func TestWriterHoldsBurst(t *testing.T) {
	conn := new(writeLog)
	w := &Writer{conn: conn, timeout: time.Minute}
	var order []string
	done := func(name string, min time.Duration) func(time.Duration) {
		return func(d time.Duration) {
			if d < min {
				t.Errorf("%s: frame_write %v, want at least %v", name, d, min)
			}
			order = append(order, name)
		}
	}

	w.hold = true
	relayed, err := trace.AppendFrame(nil, trace.FrameBatchReply, []byte("relayed"))
	if err != nil {
		t.Fatal(err)
	}
	w.SendStream(trace.FrameBusy, 1, []byte("busy"), done("busy", 0))
	w.Write(relayed, time.Now().Add(-time.Second), done("relayed", time.Second))
	built := append(trace.BeginFrame(w.Block(64)), "built in place"...)
	trace.SealFrame(built, trace.FrameBatchReply)
	w.Write(built, time.Now(), done("built", 0))
	w.Send(trace.FrameStreamClosed, []byte("closed"))
	if len(conn.writes) != 0 || len(order) != 0 {
		t.Fatalf("%d writes and dones %v while the burst lasts, want none", len(conn.writes), order)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(conn.writes) != 1 || strings.Join(order, ",") != "busy,relayed,built" {
		t.Fatalf("flush made %d writes, dones %v; want 1 write, then busy,relayed,built", len(conn.writes), order)
	}
	var types []trace.FrameType
	var in trace.FrameReader
	for in.Reset(bytes.NewReader(conn.writes[0])); ; {
		ft, _, err := in.Next()
		if err != nil {
			break
		}
		types = append(types, ft)
	}
	want := []trace.FrameType{trace.FrameBusy, trace.FrameBatchReply, trace.FrameBatchReply, trace.FrameStreamClosed}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("the write carried frames %v, want %v", types, want)
	}

	conn.writes = nil
	big := make([]byte, 10<<10)
	for sent := 0; sent < maxBlock; sent += trace.FrameHeaderBytes + 4 + len(big) {
		w.SendStream(trace.FrameBatchReply, 2, big, nil)
	}
	if len(conn.writes) != 1 || len(conn.writes[0]) < maxBlock {
		t.Fatalf("a block past maxBlock made %d writes, want 1 of at least %d bytes", len(conn.writes), maxBlock)
	}
	if len(conn.writes[0])%(trace.FrameHeaderBytes+4+len(big)) != 0 {
		t.Fatalf("the capped write of %d bytes ends inside a frame", len(conn.writes[0]))
	}

	conn.writes = nil
	w.hold = false
	w.Write(relayed, time.Time{}, nil)
	if len(conn.writes) != 1 || !bytes.Equal(conn.writes[0], relayed) {
		t.Fatalf("outside a burst: %d writes, want the frame written at once", len(conn.writes))
	}
}
