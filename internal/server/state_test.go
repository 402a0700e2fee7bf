package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/trace"
)

// transcode sends one batch on stream 0 and returns the raw BatchReply
// body.
func (r *rawClient) transcode(id uint64, txns []trace.Transaction, txnSize int) []byte {
	r.t.Helper()
	r.send(trace.FrameBatch, sealedBatch(r.t, id, txns, txnSize))
	ft, rbody := r.recv()
	if ft != trace.FrameBatchReply {
		r.t.Fatalf("batch %d answered with frame %#x: %s", id, byte(ft), rbody)
	}
	return rbody
}

// stateAck runs one admin exchange on stream 0 and returns the parsed
// StateAck.
func (r *rawClient) stateAck(ft trace.FrameType, body []byte) (uint8, uint64, []byte) {
	r.t.Helper()
	r.send(ft, append(trace.AppendStreamID(nil, 0), body...))
	aft, rbody := r.recv()
	if aft != trace.FrameStateAck {
		r.t.Fatalf("frame %#x answered with frame %#x: %s", byte(ft), byte(aft), rbody)
	}
	status, seq, payload, err := trace.ParseStateAck(stripMux(r.t, 0, rbody))
	if err != nil {
		r.t.Fatalf("ParseStateAck: %v", err)
	}
	return status, seq, payload
}

// stateTxns builds low-entropy write traffic that fills the bdenc
// repository, so snapshotted state is load-bearing for later batches.
func stateTxns(round, n, txnSize int) []trace.Transaction {
	txns := make([]trace.Transaction, n)
	for i := range txns {
		data := make([]byte, txnSize)
		for w := 0; w < txnSize/8; w++ {
			data[w*8] = 0x5A
			data[w*8+5] = byte(1 << uint((round+i+w)%8))
		}
		txns[i] = trace.Transaction{Addr: uint64(round*64 + i), Kind: trace.Write, Data: data}
	}
	return txns
}

// TestStateSnapshotRestoreRoundTrip is the state-transfer determinism
// proof at the single-backend level: a session's codec state, pulled over
// a StateSnapshot exchange and replayed into a brand-new session over
// StateRestore, must make the new session's next reply byte-identical to
// the one the original session produces — repository hits, metadata,
// stats, everything.
func TestStateSnapshotRestoreRoundTrip(t *testing.T) {
	const txnSize = 32
	srv := startServer(t, testConfig())

	a := dialRaw(t, srv.Addr(), "bdenc", txnSize)
	for id := uint64(1); id <= 3; id++ {
		a.transcode(id, stateTxns(int(id), 8, txnSize), txnSize)
	}
	status, seq, blob := a.stateAck(trace.FrameStateSnapshot, nil)
	if status != trace.StateOK {
		t.Fatalf("snapshot status = %d (%s), want StateOK", status, blob)
	}
	if seq != 3 {
		t.Fatalf("snapshot at sequence %d, want 3", seq)
	}
	if len(blob) == 0 {
		t.Fatal("snapshot blob is empty")
	}
	replyA := a.transcode(4, stateTxns(4, 8, txnSize), txnSize)

	b := dialRaw(t, srv.Addr(), "bdenc", txnSize)
	rstatus, rseq, msg := b.stateAck(trace.FrameStateRestore, trace.MarshalStateRestore(seq, blob))
	if rstatus != trace.StateOK {
		t.Fatalf("restore status = %d (%s), want StateOK", rstatus, msg)
	}
	if rseq != seq {
		t.Fatalf("restore acked sequence %d, want %d", rseq, seq)
	}
	replyB := b.transcode(4, stateTxns(4, 8, txnSize), txnSize)
	if !bytes.Equal(replyA, replyB) {
		t.Fatal("restored session's reply differs from the original session's; state transfer is not byte-identical")
	}

	resp, err := http.Get("http://" + srv.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	exp, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"bxtd_state_snapshots_total 1", "bxtd_state_restores_total 1", "bxtd_state_transfer_failures_total 0"} {
		if !strings.Contains(string(exp), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStateRestoreRejectsCorruptBlob pins the fail-closed contract: a
// corrupted state blob must be refused with StateFailed — and the session
// must keep serving from reset state afterwards, not die or half-apply.
func TestStateRestoreRejectsCorruptBlob(t *testing.T) {
	const txnSize = 32
	srv := startServer(t, testConfig())

	a := dialRaw(t, srv.Addr(), "bdenc", txnSize)
	a.transcode(1, stateTxns(1, 8, txnSize), txnSize)
	status, seq, blob := a.stateAck(trace.FrameStateSnapshot, nil)
	if status != trace.StateOK {
		t.Fatalf("snapshot status = %d, want StateOK", status)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x10

	b := dialRaw(t, srv.Addr(), "bdenc", txnSize)
	rstatus, _, msg := b.stateAck(trace.FrameStateRestore, trace.MarshalStateRestore(seq, bad))
	if rstatus != trace.StateFailed {
		t.Fatalf("corrupt restore status = %d (%s), want StateFailed", rstatus, msg)
	}
	// The refusing session still serves; its codec is freshly reset, so the
	// reply matches what any new session produces for the same batch.
	got := b.transcode(1, stateTxns(1, 8, txnSize), txnSize)
	c := dialRaw(t, srv.Addr(), "bdenc", txnSize)
	want := c.transcode(1, stateTxns(1, 8, txnSize), txnSize)
	if !bytes.Equal(got, want) {
		t.Fatal("session after failed restore does not serve from reset state")
	}
}

// TestStateSnapshotUnsupportedScheme: a stateless scheme has no state to
// move; the server must answer StateUnsupported and keep the session.
func TestStateSnapshotUnsupportedScheme(t *testing.T) {
	const txnSize = 32
	srv := startServer(t, testConfig())
	r := dialRaw(t, srv.Addr(), "universal", txnSize)
	status, _, msg := r.stateAck(trace.FrameStateSnapshot, nil)
	if status != trace.StateUnsupported {
		t.Fatalf("snapshot status = %d (%s), want StateUnsupported", status, msg)
	}
	r.transcode(1, stateTxns(1, 4, txnSize), txnSize)
}

// TestDrainLameDuck drives the POST /drain admin hook: the server must
// refuse new sessions and flip /healthz to 503 while existing sessions —
// including their snapshot service — keep working until told otherwise.
func TestDrainLameDuck(t *testing.T) {
	const txnSize = 32
	srv := startServer(t, testConfig())
	r := dialRaw(t, srv.Addr(), "bdenc", txnSize)
	r.transcode(1, stateTxns(1, 8, txnSize), txnSize)

	resp, err := http.Post("http://"+srv.MetricsAddr()+"/drain", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST /drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /drain = %d, want 200", resp.StatusCode)
	}
	hr, err := http.Get("http://" + srv.MetricsAddr() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("lame-duck /healthz = %d, want 503", hr.StatusCode)
	}

	// New sessions are refused with an Error frame...
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	body, _ := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: txnSize, Scheme: "bdenc"})
	bw := bufio.NewWriter(conn)
	if err := trace.WriteFrame(bw, trace.FrameHello, body); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	bw.Flush()
	ft, _, err := trace.ReadFrame(bufio.NewReader(conn), nil)
	if err == nil && ft != trace.FrameError {
		t.Errorf("lame-duck hello answered with frame %#x, want Error (or close)", byte(ft))
	}

	// ...while the existing session still transcodes and still serves the
	// snapshots a proxy needs to migrate sessions off this backend.
	r.transcode(2, stateTxns(2, 8, txnSize), txnSize)
	status, seq, _ := r.stateAck(trace.FrameStateSnapshot, nil)
	if status != trace.StateOK {
		t.Fatalf("lame-duck snapshot status = %d, want StateOK", status)
	}
	if seq != 2 {
		t.Fatalf("lame-duck snapshot at sequence %d, want 2", seq)
	}
}
