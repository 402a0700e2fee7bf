package server

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/trace"
)

// rawClient speaks BXTP by hand so tests can send frames no well-behaved
// client would.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	ok   trace.HelloOK
}

func dialRaw(t *testing.T, addr, scheme string, txnSize int) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &rawClient{t: t, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	hello, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: txnSize, Scheme: scheme})
	if err != nil {
		t.Fatalf("MarshalHello: %v", err)
	}
	r.send(trace.FrameHello, hello)
	ft, body := r.recv()
	if ft != trace.FrameHelloOK {
		t.Fatalf("handshake answered with frame %#x (%q)", ft, body)
	}
	ok, err := trace.ParseHelloOK(body)
	if err != nil {
		t.Fatalf("ParseHelloOK: %v", err)
	}
	r.ok = ok
	return r
}

func (r *rawClient) send(ft trace.FrameType, body []byte) {
	r.t.Helper()
	r.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := trace.WriteFrame(r.bw, ft, body); err != nil {
		r.t.Fatalf("WriteFrame(%#x): %v", ft, err)
	}
	if err := r.bw.Flush(); err != nil {
		r.t.Fatalf("flush: %v", err)
	}
}

// sendWire writes wire, whole frames back to back, in one Write.
func (r *rawClient) sendWire(wire []byte) {
	r.t.Helper()
	r.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.conn.Write(wire); err != nil {
		r.t.Fatalf("write: %v", err)
	}
}

func (r *rawClient) recv() (trace.FrameType, []byte) {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, body, err := trace.ReadFrame(r.br, nil)
	if err != nil {
		r.t.Fatalf("ReadFrame: %v", err)
	}
	return ft, body
}

// testTraceID is the fixed trace id test batches carry.
const testTraceID = 0xabad1dea

// startEnvelope begins a stream-0 Batch body for id: the stream id, then
// the batch envelope carrying the test trace id.
func startEnvelope(id uint64) []byte {
	return trace.AppendTraceEnvelope(trace.AppendStreamID(nil, 0), id, testTraceID)
}

// sealedBatch builds a valid enveloped stream-0 Batch body for id.
func sealedBatch(t *testing.T, id uint64, txns []trace.Transaction, txnSize int) []byte {
	t.Helper()
	body, err := trace.AppendBatch(startEnvelope(id), txns, txnSize)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := trace.SealBatchEnvelope(body[4:]); err != nil {
		t.Fatalf("SealBatchEnvelope: %v", err)
	}
	return body
}

// sealedRaw builds an enveloped stream-0 Batch body for id carrying raw
// (unparseable) payload bytes.
func sealedRaw(t *testing.T, id uint64, payload ...byte) []byte {
	t.Helper()
	body := append(startEnvelope(id), payload...)
	if err := trace.SealBatchEnvelope(body[4:]); err != nil {
		t.Fatalf("SealBatchEnvelope: %v", err)
	}
	return body
}

// stripMux strips the stream-id prefix of a reply body and checks it names
// wantSID.
func stripMux(t *testing.T, wantSID uint32, body []byte) []byte {
	t.Helper()
	sid, rest, err := trace.SplitStreamID(body)
	if err != nil {
		t.Fatalf("SplitStreamID: %v", err)
	}
	if sid != wantSID {
		t.Fatalf("reply carries stream %d, want %d", sid, wantSID)
	}
	return rest
}

// expectBatchError reads one frame and asserts it is a BatchError for id.
func expectBatchError(t *testing.T, r *rawClient, id uint64, wantSub string) (reset bool) {
	t.Helper()
	ft, body := r.recv()
	if ft != trace.FrameBatchError {
		t.Fatalf("got frame %#x (%q), want BatchError", ft, body)
	}
	body = stripMux(t, 0, body)
	rid, reset, msg, err := trace.ParseBatchError(body)
	if err != nil {
		t.Fatalf("ParseBatchError: %v", err)
	}
	if rid != id {
		t.Fatalf("BatchError names batch %d, want %d", rid, id)
	}
	if wantSub != "" && !strings.Contains(msg, wantSub) {
		t.Fatalf("BatchError message %q, want mention of %q", msg, wantSub)
	}
	return reset
}

// expectGoodReply reads one frame and asserts it is a BatchReply for id
// carrying n records.
func expectGoodReply(t *testing.T, r *rawClient, id uint64, txnSize, n int) {
	t.Helper()
	ft, body := r.recv()
	if ft != trace.FrameBatchReply {
		t.Fatalf("got frame %#x (%q), want BatchReply", ft, body)
	}
	body = stripMux(t, 0, body)
	rid, rtrace, payload, err := trace.OpenTraceEnvelope(body)
	if err != nil {
		t.Fatalf("opening reply envelope: %v", err)
	}
	if rtrace != testTraceID {
		t.Fatalf("reply carries trace %#x, want %#x", rtrace, uint64(testTraceID))
	}
	if rid != id {
		t.Fatalf("reply names batch %d, want %d", rid, id)
	}
	metaBytes := (r.ok.MetaBits + 7) / 8
	reply, err := trace.ParseBatchReplyInto(payload, txnSize, metaBytes, nil)
	if err != nil {
		t.Fatalf("ParseBatchReplyInto: %v", err)
	}
	if len(reply.Records) != n {
		t.Fatalf("reply carries %d records, want %d", len(reply.Records), n)
	}
}

// metricValue extracts an unlabeled integer metric from an exposition.
func metricValue(t *testing.T, exposition, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("metric %s missing from exposition", name)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return n
}

// TestMalformedBatchSoftFails verifies a session survives a batch the
// server cannot parse: the fault is answered with a BatchError frame and
// the next good batch is served on the same connection.
func TestMalformedBatchSoftFails(t *testing.T) {
	srv := startServer(t, testConfig())
	r := dialRaw(t, srv.Addr(), "universal", 32)

	r.send(trace.FrameBatch, sealedRaw(t, 1, 0xde, 0xad)) // not a parseable batch payload
	expectBatchError(t, r, 1, "")

	txns := makeTxns(rand.New(rand.NewSource(1)), 8, 32)
	r.send(trace.FrameBatch, sealedBatch(t, 2, txns, 32))
	expectGoodReply(t, r, 2, 32, 8)

	exp := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	if got := metricValue(t, exp, "bxtd_batch_faults_total"); got != 1 {
		t.Errorf("bxtd_batch_faults_total = %d, want 1", got)
	}
}

// TestOversizedBatchSoftFails verifies a batch beyond the negotiated limit
// is rejected with a BatchError, not a disconnect.
func TestOversizedBatchSoftFails(t *testing.T) {
	cfg := testConfig()
	cfg.BatchLimit = 8
	srv := startServer(t, cfg)
	r := dialRaw(t, srv.Addr(), "universal", 32)

	rng := rand.New(rand.NewSource(2))
	r.send(trace.FrameBatch, sealedBatch(t, 1, makeTxns(rng, 9, 32), 32))
	expectBatchError(t, r, 1, "outside")

	r.send(trace.FrameBatch, sealedBatch(t, 2, makeTxns(rng, 8, 32), 32))
	expectGoodReply(t, r, 2, 32, 8)
}

// TestCorruptBatchCRC verifies the envelope CRC catches payload damage and
// the session survives: the exact corrupt batch id comes back in a
// BatchError so the client can retry it.
func TestCorruptBatchCRC(t *testing.T) {
	srv := startServer(t, testConfig())
	r := dialRaw(t, srv.Addr(), "universal", 32)

	rng := rand.New(rand.NewSource(3))
	body := sealedBatch(t, 7, makeTxns(rng, 8, 32), 32)
	body[20] ^= 0x10 // flip one payload bit after sealing
	r.send(trace.FrameBatch, body)
	expectBatchError(t, r, 7, "crc")

	r.send(trace.FrameBatch, sealedBatch(t, 8, makeTxns(rng, 8, 32), 32))
	expectGoodReply(t, r, 8, 32, 8)
}

// TestFaultBudgetStreamKill verifies a stream exhausting
// its fault budget is retired with a StreamClosed frame while the
// connection — and a sibling stream — keep serving.
func TestFaultBudgetStreamKill(t *testing.T) {
	cfg := testConfig()
	cfg.FaultBudget = 3
	srv := startServer(t, cfg)
	r := dialRaw(t, srv.Addr(), "universal", 32)

	// Open a sibling stream before poisoning stream 0.
	open, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: 7, TxnSize: 32, Scheme: "universal"})
	if err != nil {
		t.Fatal(err)
	}
	r.send(trace.FrameStreamOpen, open)
	ft, body := r.recv()
	if ft != trace.FrameStreamOpenOK {
		t.Fatalf("StreamOpen answered with frame %#x (%q)", ft, body)
	}
	ok, err := trace.ParseStreamOpenOK(body)
	if err != nil {
		t.Fatal(err)
	}
	if ok.ID != 7 || ok.Status != trace.StreamOK {
		t.Fatalf("StreamOpenOK = %+v, want stream 7 accepted", ok)
	}

	// Exhaust stream 0's budget with unparseable batches.
	for id := uint64(1); id <= 3; id++ {
		r.send(trace.FrameBatch, sealedRaw(t, id, 0xff))
		expectBatchError(t, r, id, "")
	}
	ft, body = r.recv()
	if ft != trace.FrameStreamClosed {
		t.Fatalf("after budget exhaustion got frame %#x (%q), want StreamClosed", ft, body)
	}
	sid, msg, err := trace.ParseStreamClosed(body)
	if err != nil {
		t.Fatal(err)
	}
	if sid != 0 || !strings.Contains(msg, "fault budget") {
		t.Fatalf("StreamClosed names stream %d (%q), want stream 0 with a fault-budget cause", sid, msg)
	}

	// The sibling stream still serves on the same connection.
	txns := makeTxns(rand.New(rand.NewSource(77)), 8, 32)
	batch := trace.AppendStreamID(nil, 7)
	batch = trace.AppendTraceEnvelope(batch, 10, testTraceID)
	batch, err = trace.AppendBatch(batch, txns, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.SealBatchEnvelope(batch[4:]); err != nil {
		t.Fatal(err)
	}
	r.send(trace.FrameBatch, batch)
	ft, body = r.recv()
	if ft != trace.FrameBatchReply {
		t.Fatalf("sibling stream batch answered with frame %#x (%q), want BatchReply", ft, body)
	}
	body = stripMux(t, 7, body)
	rid, rtrace, payload, err := trace.OpenTraceEnvelope(body)
	if err != nil || rid != 10 || rtrace != testTraceID {
		t.Fatalf("sibling reply envelope: id %d trace %#x err %v", rid, rtrace, err)
	}
	reply, err := trace.ParseBatchReplyInto(payload, 32, 0, nil)
	if err != nil || len(reply.Records) != len(txns) {
		t.Fatalf("sibling reply: %d records, err %v", len(reply.Records), err)
	}

	// A batch for the killed stream is answered with a (non-fatal)
	// re-announced StreamClosed, not a disconnect.
	r.send(trace.FrameBatch, sealedRaw(t, 11, 0xff))
	ft, body = r.recv()
	if ft != trace.FrameStreamClosed {
		t.Fatalf("batch on killed stream answered with frame %#x (%q), want StreamClosed", ft, body)
	}

	exp := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	if got := metricValue(t, exp, "bxtd_stream_kills_total"); got != 1 {
		t.Errorf("bxtd_stream_kills_total = %d, want 1", got)
	}
	if got := metricValue(t, exp, "bxtd_streams_open"); got != 1 {
		t.Errorf("bxtd_streams_open = %d, want 1 (the sibling)", got)
	}
	if got := metricValue(t, exp, "bxtd_fault_budget_disconnects_total"); got != 1 {
		t.Errorf("bxtd_fault_budget_disconnects_total = %d, want 1 (the stream kill)", got)
	}
}

// TestCodecPanicContained verifies a codec panic mid-batch never kills the
// process: the batch is quarantined on the poison ring, the session stays
// up, and the client is told to reset its decoder.
func TestCodecPanicContained(t *testing.T) {
	srv, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.SetFaults(faults.MustNew(faults.Config{PanicRate: 1}))
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	c, err := client.Dial(srv.Addr(), "universal", 32)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	txns := makeTxns(rand.New(rand.NewSource(4)), 8, 32)
	if _, err := c.Transcode(txns); !errors.Is(err, client.ErrBatchFault) {
		t.Fatalf("Transcode over panicking codec = %v, want ErrBatchFault", err)
	}
	if c.Epoch() != 1 {
		t.Errorf("Epoch = %d after codec-reset BatchError, want 1", c.Epoch())
	}
	// Same session, second batch: the server survived the panic.
	if _, err := c.Transcode(txns); !errors.Is(err, client.ErrBatchFault) {
		t.Fatalf("second Transcode = %v, want ErrBatchFault on a live session", err)
	}

	exp := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	if got := metricValue(t, exp, "bxtd_codec_panics_total"); got != 2 {
		t.Errorf("bxtd_codec_panics_total = %d, want 2", got)
	}
	if got := metricValue(t, exp, "bxtd_poison_batches_total"); got != 2 {
		t.Errorf("bxtd_poison_batches_total = %d, want 2", got)
	}
	poison := httpGet(t, "http://"+srv.MetricsAddr()+"/debug/poison")
	if !strings.Contains(poison, "injected codec panic") || !strings.Contains(poison, `"scheme": "universal"`) {
		t.Errorf("/debug/poison does not describe the quarantined batch: %s", poison)
	}
}

// TestBusyShedding verifies the admission gate sheds a batch with a
// retryable Busy frame when the worker pool stays saturated beyond the
// admit timeout.
func TestBusyShedding(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.MaxPending = 1
	cfg.AdmitTimeout = 50 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	block := make(chan struct{})
	var hold, release sync.Once
	unblock := func() { release.Do(func() { close(block) }) }
	srv.testHookBatch = func() { hold.Do(func() { <-block }) }
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { unblock(); srv.Close() })

	txns := makeTxns(rand.New(rand.NewSource(5)), 8, 32)
	occupant, err := client.Dial(srv.Addr(), "universal", 32)
	if err != nil {
		t.Fatalf("Dial occupant: %v", err)
	}
	defer occupant.Close()
	occupied := make(chan error, 1)
	go func() {
		_, err := occupant.Transcode(txns) // holds the only worker until block closes
		occupied <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the occupant take the slot

	shed, err := client.Dial(srv.Addr(), "universal", 32)
	if err != nil {
		t.Fatalf("Dial shed: %v", err)
	}
	defer shed.Close()
	if _, err := shed.Transcode(txns); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("Transcode against a saturated pool = %v, want ErrBusy", err)
	}

	unblock()
	if err := <-occupied; err != nil {
		t.Fatalf("occupant Transcode: %v", err)
	}

	exp := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	if got := metricValue(t, exp, "bxtd_busy_total"); got != 1 {
		t.Errorf("bxtd_busy_total = %d, want 1", got)
	}
}

// TestBusyRetrySucceeds verifies a client configured with retries rides
// out a shed: the same batch id is resent and eventually served.
func TestBusyRetrySucceeds(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.MaxPending = 1
	cfg.AdmitTimeout = 30 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	block := make(chan struct{})
	var hold sync.Once
	srv.testHookBatch = func() { hold.Do(func() { <-block }) }
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	txns := makeTxns(rand.New(rand.NewSource(6)), 8, 32)
	occupant, err := client.Dial(srv.Addr(), "universal", 32)
	if err != nil {
		t.Fatalf("Dial occupant: %v", err)
	}
	defer occupant.Close()
	occupied := make(chan error, 1)
	go func() {
		_, err := occupant.Transcode(txns)
		occupied <- err
	}()
	time.Sleep(100 * time.Millisecond)
	// Free the worker shortly after the retrier's first shed.
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(block)
	}()

	retrier, err := client.DialConfig(srv.Addr(), "universal", 32, client.Config{
		MaxRetries:   10,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial retrier: %v", err)
	}
	defer retrier.Close()
	if _, err := retrier.Transcode(txns); err != nil {
		t.Fatalf("Transcode with retries = %v, want success after shed", err)
	}
	if stats := retrier.RetryStats(); stats.Busy == 0 || stats.Retries == 0 {
		t.Errorf("RetryStats = %+v, want Busy > 0 and Retries > 0", stats)
	}
	if err := <-occupied; err != nil {
		t.Fatalf("occupant Transcode: %v", err)
	}
}

// TestSlowClientTeardown verifies a peer that stops reading replies is torn
// down by the write deadline, with the slow_client lifecycle event and
// counter recorded.
func TestSlowClientTeardown(t *testing.T) {
	cfg := testConfig()
	cfg.WriteTimeout = 200 * time.Millisecond
	srv := startServer(t, cfg)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Shrink the receive window so a handful of replies jams the pipe.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	bw := bufio.NewWriter(conn)
	hello, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: 32, Scheme: "universal"})
	if err != nil {
		t.Fatal(err)
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := trace.WriteFrame(bw, trace.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if ft, _, err := trace.ReadFrame(br, nil); err != nil || ft != trace.FrameHelloOK {
		t.Fatalf("handshake: frame %#x, err %v", ft, err)
	}

	// Pump large batches without ever reading a reply. Replies accumulate
	// in the server's kernel send buffer until it jams, the write deadline
	// expires, and the session is torn down — at which point our own sends
	// fail (reset connection) and the pump stops. The per-write deadline
	// is patient: the client must outlast the server's WriteTimeout, not
	// trip first while the server is merely slow.
	txns := makeTxns(rand.New(rand.NewSource(8)), 4096, 32)
	var id uint64
	for start := time.Now(); time.Since(start) < 30*time.Second; {
		id++
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := trace.WriteFrame(bw, trace.FrameBatch, sealedBatch(t, id, txns, 32)); err != nil {
			break
		}
		if err := bw.Flush(); err != nil {
			break
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		events := httpGet(t, "http://"+srv.MetricsAddr()+"/debug/events")
		if strings.Contains(events, `"slow_client"`) && strings.Contains(events, `"session_close"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow_client + session_close events after write stall; events: %s", events)
		}
		time.Sleep(50 * time.Millisecond)
	}
	exp := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	if got := metricValue(t, exp, "bxtd_slow_client_disconnects_total"); got < 1 {
		t.Errorf("bxtd_slow_client_disconnects_total = %d, want >= 1", got)
	}
}

// TestOldHelloRejected feeds bxtd the committed v1–v4 Hello golden
// vectors, the bytes an older peer opens with: each is answered with an
// Error frame naming the version, and then the connection closes.
func TestOldHelloRejected(t *testing.T) {
	srv := startServer(t, testConfig())
	for v := 1; v <= 4; v++ {
		raw, err := os.ReadFile(fmt.Sprintf("../trace/testdata/v%d_hello.hex", v))
		if err != nil {
			t.Fatal(err)
		}
		wire, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(wire); err != nil {
			t.Fatalf("writing v%d hello: %v", v, err)
		}
		br := bufio.NewReader(conn)
		ft, body, err := trace.ReadFrame(br, nil)
		if err != nil || ft != trace.FrameError {
			t.Fatalf("v%d hello answered with frame %#x, err %v; want Error", v, ft, err)
		}
		if want := fmt.Sprintf("version %d", v); !strings.Contains(string(body), want) {
			t.Errorf("v%d rejection %q does not name the version", v, body)
		}
		if _, _, err := trace.ReadFrame(br, nil); err != io.EOF {
			t.Errorf("after v%d rejection: read err %v, want EOF (closed)", v, err)
		}
		conn.Close()
	}
}
