package server

import (
	"bufio"
	"math/rand"
	"net"
	"testing"

	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/trace"
)

// dialRawFaulty is dialRaw with the injector's stream faults wrapped
// around the connection's write side: whole Batch frames are dropped
// or relabeled onto a sibling stream according to in's configuration.
func dialRawFaulty(t *testing.T, addr string, in *faults.Injector, scheme string, txnSize int) *rawClient {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn := in.WrapStreamConn(raw)
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

// openSibling opens stream sid with its own transaction size on r.
func openSibling(t *testing.T, r *rawClient, sid uint32, scheme string, txnSize int) {
	t.Helper()
	open, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: sid, TxnSize: txnSize, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	r.send(trace.FrameStreamOpen, open)
	ft, body := r.recv()
	if ft != trace.FrameStreamOpenOK {
		t.Fatalf("StreamOpen answered with frame %#x (%q)", ft, body)
	}
	ok, err := trace.ParseStreamOpenOK(body)
	if err != nil || ok.ID != sid || ok.Status != trace.StreamOK {
		t.Fatalf("StreamOpenOK = %+v err %v, want stream %d accepted", ok, err, sid)
	}
}

// sidBatch builds a sealed Batch body for an arbitrary stream.
func sidBatch(t *testing.T, sid uint32, id uint64, txns []trace.Transaction, txnSize int) []byte {
	t.Helper()
	body := trace.AppendStreamID(nil, sid)
	body = trace.AppendTraceEnvelope(body, id, testTraceID)
	body, err := trace.AppendBatch(body, txns, txnSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.SealBatchEnvelope(body[4:]); err != nil {
		t.Fatal(err)
	}
	return body
}

// expectSIDReply reads one frame and asserts it is a BatchReply for id on
// stream sid carrying n records of txnSize bytes.
func expectSIDReply(t *testing.T, r *rawClient, sid uint32, id uint64, txnSize, n int) {
	t.Helper()
	ft, body := r.recv()
	if ft != trace.FrameBatchReply {
		t.Fatalf("got frame %#x (%q), want BatchReply", ft, body)
	}
	body = stripMux(t, sid, body)
	rid, rtrace, payload, err := trace.OpenTraceEnvelope(body)
	if err != nil || rid != id || rtrace != testTraceID {
		t.Fatalf("reply envelope: id %d trace %#x err %v, want id %d", rid, rtrace, err, id)
	}
	reply, err := trace.ParseBatchReplyInto(payload, txnSize, (r.ok.MetaBits+7)/8, nil)
	if err != nil || len(reply.Records) != n {
		t.Fatalf("reply: %d records err %v, want %d records", len(reply.Records), err, n)
	}
}

// TestStreamInterleavePoisonsOneStream is the cross-stream poisoning
// drill: the injector's stream-interleave mode relabels one stream's
// batch onto its sibling, and the server must soft-fail exactly the
// poisoned stream with a BatchError — the misrouted interior's geometry
// cannot match the victim codec's transaction size — while both streams
// keep serving on the very same connection afterwards.
func TestStreamInterleavePoisonsOneStream(t *testing.T) {
	srv := startServer(t, testConfig())
	inj := faults.MustNew(faults.Config{StreamInterleaveRate: 1, StreamTarget: 7})
	r := dialRawFaulty(t, srv.Addr(), inj, "universal", 32)
	openSibling(t, r, 7, "universal", 64)

	rng := rand.New(rand.NewSource(5))
	narrow := makeTxns(rng, 8, 32)
	wide := makeTxns(rng, 8, 64)

	// Batch 1 on stream 0 passes untouched (only stream 7 is targeted)
	// and seeds the interleaver's previous-stream memory.
	r.send(trace.FrameBatch, sidBatch(t, 0, 1, narrow, 32))
	expectSIDReply(t, r, 0, 1, 32, len(narrow))

	// Batch 2 on stream 7 is relabeled onto stream 0: 64-byte records
	// land on the 32-byte codec, the geometry check trips, and stream 0
	// answers a BatchError — a soft failure, not a disconnect.
	r.send(trace.FrameBatch, sidBatch(t, 7, 2, wide, 64))
	expectBatchError(t, r, 2, "")
	if got := inj.Counts().StreamInterleaved; got != 1 {
		t.Fatalf("StreamInterleaved = %d, want 1", got)
	}

	// Both the poisoned stream and its sibling keep serving on the same
	// connection. (Stream 7's next batch follows its own stream-7
	// predecessor, so the interleaver has nothing to swap with.)
	r.send(trace.FrameBatch, sidBatch(t, 7, 3, wide, 64))
	expectSIDReply(t, r, 7, 3, 64, len(wide))
	r.send(trace.FrameBatch, sidBatch(t, 0, 4, narrow, 32))
	expectSIDReply(t, r, 0, 4, 32, len(narrow))

	exp := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	if got := metricValue(t, exp, "bxtd_batch_faults_total"); got != 1 {
		t.Errorf("bxtd_batch_faults_total = %d, want 1", got)
	}
	if got := metricValue(t, exp, "bxtd_stream_kills_total"); got != 0 {
		t.Errorf("bxtd_stream_kills_total = %d, want 0 (one fault is within budget)", got)
	}
}

// TestStreamDropLeavesSiblingsServing pins stream-drop's frame
// granularity: the targeted stream's batch vanishes mid-wire, yet the
// connection never desynchronizes — sibling batches written before and
// after the dropped frame are served byte-perfectly, and the poisoned
// stream itself recovers as soon as the drop stops firing.
func TestStreamDropLeavesSiblingsServing(t *testing.T) {
	srv := startServer(t, testConfig())
	inj := faults.MustNew(faults.Config{StreamDropRate: 1, StreamTarget: 7})
	r := dialRawFaulty(t, srv.Addr(), inj, "universal", 32)
	openSibling(t, r, 7, "universal", 32)

	rng := rand.New(rand.NewSource(6))
	txns := makeTxns(rng, 8, 32)

	// The stream-7 batch is swallowed whole; the stream-0 batches around
	// it arrive intact and in order.
	r.send(trace.FrameBatch, sidBatch(t, 0, 1, txns, 32))
	r.send(trace.FrameBatch, sidBatch(t, 7, 2, txns, 32))
	r.send(trace.FrameBatch, sidBatch(t, 0, 3, txns, 32))
	expectSIDReply(t, r, 0, 1, 32, len(txns))
	expectSIDReply(t, r, 0, 3, 32, len(txns))
	if got := inj.Counts().StreamDropped; got != 1 {
		t.Fatalf("StreamDropped = %d, want 1", got)
	}

	// Identical bytes in one coalesced write: the frame reassembler must
	// find the boundaries and drop only the stream-7 frame.
	var burst []byte
	burst = appendFrame(t, burst, sidBatch(t, 7, 4, txns, 32))
	burst = appendFrame(t, burst, sidBatch(t, 0, 5, txns, 32))
	if _, err := r.conn.Write(burst); err != nil {
		t.Fatalf("burst write: %v", err)
	}
	expectSIDReply(t, r, 0, 5, 32, len(txns))
	if got := inj.Counts().StreamDropped; got != 2 {
		t.Fatalf("StreamDropped after burst = %d, want 2", got)
	}
}

// appendFrame appends one framed Batch body to dst.
func appendFrame(t *testing.T, dst, body []byte) []byte {
	t.Helper()
	var hdr [5]byte
	hdr[4] = byte(trace.FrameBatch)
	n := uint32(len(body) + 1)
	hdr[0], hdr[1], hdr[2], hdr[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return append(dst, append(hdr[:], body...)...)
}
