package client_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// coreEncoded wraps a reply record for a decoder.
func coreEncoded(rec trace.EncodedRecord, metaBits int) core.Encoded {
	return core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: metaBits}
}

// awaitGoroutines polls until runtime.NumGoroutine reads want, failing the
// test with the last count after a few seconds.
func awaitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	n := 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if n = runtime.NumGoroutine(); n == want {
			return
		}
	}
	t.Fatalf("%s: %d goroutines, want %d", what, n, want)
}

// settledGoroutines returns runtime.NumGoroutine once it has held still
// for 100 ms (or after a few seconds): servers of earlier tests finish
// closing in the background.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 20 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			still++
		} else {
			n, still = now, 0
		}
	}
	return n
}

// serverSessionGoroutines measures how many goroutines bxtd runs per
// session: the count a raw Hello-only connection adds.
func serverSessionGoroutines(t *testing.T, addr string) int {
	t.Helper()
	base := settledGoroutines()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: 32, Scheme: "basexor"})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteFrame(conn, trace.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := trace.ReadFrame(conn, nil); err != nil || ft != trace.FrameHelloOK {
		t.Fatalf("hello answered with frame %#x, err %v", ft, err)
	}
	per := runtime.NumGoroutine() - base
	conn.Close()
	awaitGoroutines(t, base, "after the raw session closed")
	return per
}

// TestMuxReadRoleHandoff pins the leader/follower read role on the mux16
// mix (twelve basexor and four bdenc streams, 64×32 B batches). A bdenc
// session reads its last reply in place and stops calling; the other
// fifteen then run 500 decode-verified batches each, concurrently, none
// waiting past IOTimeout, while the idle session's reply stays byte for
// byte what it was. The idle session then resumes where its decoder left
// off. No client goroutine runs per connection: with the mux open and
// idle, the only goroutines added are bxtd's for the session.
func TestMuxReadRoleHandoff(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := startGateway(t)
	perSession := serverSessionGoroutines(t, srv.Addr())
	before := settledGoroutines()

	const ioTimeout = 5 * time.Second
	m, err := client.NewMux(srv.Addr(), client.Config{IOTimeout: ioTimeout})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	sessions := make([]*client.Session, 16)
	for i := range sessions {
		name := "basexor"
		if i%4 == 3 {
			name = "bdenc"
		}
		if sessions[i], err = m.Open(name, 32); err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
	}
	awaitGoroutines(t, before+perSession, "mux open and idle")

	idle := sessions[3]
	idleDec := muxDecoder(t, idle.Scheme())
	if bumps := verifyStream(t, idle, idleDec, 300, 3, 64); bumps != 0 || t.Failed() {
		t.Fatalf("idle stream warm-up: %d epoch bumps", bumps)
	}
	held, err := idle.Transcode(muxTxns(rand.New(rand.NewSource(301)), 64, 32))
	if err != nil {
		t.Fatalf("idle stream's last Transcode: %v", err)
	}
	var want [][]byte
	for _, rec := range held.Records {
		want = append(want, bytes.Clone(rec.Data), bytes.Clone(rec.Meta))
	}
	intact := func() bool {
		for i, rec := range held.Records {
			if !bytes.Equal(rec.Data, want[2*i]) || !bytes.Equal(rec.Meta, want[2*i+1]) {
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	var slowest atomic.Int64
	for i, s := range sessions {
		if s == idle {
			continue
		}
		wg.Add(1)
		go func(i int, s *client.Session) {
			defer wg.Done()
			dec := muxDecoder(t, s.Scheme())
			for b := 0; b < 500 && !t.Failed(); b++ {
				start := time.Now()
				if bumps := verifyStream(t, s, dec, int64(1000*i+b), 1, 64); bumps != 0 {
					t.Errorf("stream %d: %d epoch bumps, want 0", s.ID(), bumps)
				}
				if d := int64(time.Since(start)); d > slowest.Load() {
					slowest.Store(d)
				}
			}
		}(i, s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(time.Millisecond):
		}
		if !intact() {
			t.Fatal("a sibling overwrote the idle session's held reply")
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if d := time.Duration(slowest.Load()); d > ioTimeout {
		t.Errorf("slowest batch took %v, want at most IOTimeout (%v)", d, ioTimeout)
	}
	// The held reply is still the one the decoder expects next.
	decoded := make([]byte, 32)
	txns := muxTxns(rand.New(rand.NewSource(301)), 64, 32)
	for j, rec := range held.Records {
		e := coreEncoded(rec, idle.MetaBits())
		if err := idleDec.Decode(decoded, &e); err != nil || !bytes.Equal(decoded, txns[j].Data) {
			t.Fatalf("held reply record %d no longer decodes to its transaction (err %v)", j, err)
		}
	}
	if bumps := verifyStream(t, idle, idleDec, 302, 5, 64); bumps != 0 || t.Failed() {
		t.Fatalf("idle stream after resuming: %d epoch bumps", bumps)
	}
	if got := m.Reconnects(); got != 0 {
		t.Fatalf("Reconnects() = %d, want 0", got)
	}
}

// TestMuxRedialCountsSessionReconnect severs the shared connection under
// two streams: the session whose attempt redials counts the reconnect in
// its RetryStats, its sibling, which only re-opens its stream, does not,
// and the Mux counts the one redial.
func TestMuxRedialCountsSessionReconnect(t *testing.T) {
	srv := startGateway(t)
	var mu sync.Mutex
	var last net.Conn
	m, err := client.NewMux(srv.Addr(), client.Config{
		MaxRetries: 10,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
			mu.Lock()
			last = conn
			mu.Unlock()
			return conn, err
		},
	})
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
	verifyStream(t, su, du, 41, 3, 8)
	verifyStream(t, sb, db, 42, 3, 8)
	mu.Lock()
	last.Close()
	mu.Unlock()
	if bumps := verifyStream(t, sb, db, 43, 3, 8); bumps != 1 || t.Failed() {
		t.Fatalf("post-break bdenc bumps = %d, want 1", bumps)
	}
	du.Reset()
	verifyStream(t, su, du, 44, 3, 8)
	if t.Failed() {
		t.FailNow()
	}
	if got := sb.RetryStats().Reconnects; got != 1 {
		t.Errorf("redialing session's Reconnects = %d, want 1", got)
	}
	if got := su.RetryStats().Reconnects; got != 0 {
		t.Errorf("sibling's Reconnects = %d, want 0: it only re-opened its stream", got)
	}
	if got := m.Reconnects(); got != 1 {
		t.Errorf("Mux.Reconnects() = %d, want 1", got)
	}
}

// corruptConn flips the last byte of the first left Batch frames written
// through it, so bxtd answers each with a BatchError (a failed CRC)
// counted against the stream's fault budget.
type corruptConn struct {
	net.Conn
	left *atomic.Int32
}

func (c corruptConn) Write(p []byte) (int, error) {
	if len(p) > trace.FrameHeaderBytes && trace.FrameType(p[4]) == trace.FrameBatch && c.left.Add(-1) >= 0 {
		p = bytes.Clone(p)
		p[len(p)-1] ^= 0xff
	}
	return c.Conn.Write(p)
}

// TestClientStreamKillReopens pins the kill policy on a plain Client:
// when bxtd's fault budget kills stream 0, the client re-opens stream 0
// on the same connection, as a mux session re-opens its stream. The next
// Transcode succeeds with the epoch one ahead, no reconnect, and one dial.
func TestClientStreamKillReopens(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := config.DefaultServer()
	cfg.ListenAddr, cfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	cfg.LogLevel = "error"
	cfg.FaultBudget = 3
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	defer srv.Close()

	var dials atomic.Int32
	var left atomic.Int32
	left.Store(int32(cfg.FaultBudget))
	c, err := client.DialConfig(srv.Addr(), "bdenc", 32, client.Config{
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			dials.Add(1)
			return corruptConn{Conn: conn, left: &left}, nil
		},
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	epoch := c.Epoch()
	txns := muxTxns(rand.New(rand.NewSource(51)), 8, 32)
	if _, err := c.Transcode(txns); !errors.Is(err, client.ErrBatchFault) {
		t.Fatalf("Transcode through three corrupted attempts = %v, want ErrBatchFault", err)
	}
	reply, err := c.Transcode(txns)
	if err != nil {
		t.Fatalf("Transcode after the stream kill: %v", err)
	}
	if got := c.Epoch(); got != epoch+1 {
		t.Errorf("Epoch = %d, want %d: the kill restarted the codec once", got, epoch+1)
	}
	if got := c.RetryStats().Reconnects; got != 0 {
		t.Errorf("Reconnects = %d, want 0: the stream re-opens on the same connection", got)
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("dialer called %d times, want 1", got)
	}
	dec := muxDecoder(t, "bdenc")
	decoded := make([]byte, 32)
	for j, rec := range reply.Records {
		e := coreEncoded(rec, c.MetaBits())
		if err := dec.Decode(decoded, &e); err != nil || !bytes.Equal(decoded, txns[j].Data) {
			t.Fatalf("record %d after the re-open does not decode (err %v)", j, err)
		}
	}
}

// TestMuxStalledAnswerFailsConnection pins the wait bound of both roles:
// a gateway that opens streams but never answers a batch leaves one
// session reading the connection and its sibling waiting on it. Each
// fails within about IOTimeout — the reader by its read deadline, the
// follower by its own timer or the generation dying — and neither hangs.
func TestMuxStalledAnswerFailsConnection(t *testing.T) {
	addr := fakeGateway(t, func(conn net.Conn, _ int, ft trace.FrameType, body []byte) error {
		if ft != trace.FrameStreamOpen {
			return nil // swallow the batch
		}
		o, err := trace.ParseStreamOpen(body)
		if err != nil {
			return err
		}
		ok := trace.StreamOpenOK{ID: o.ID, Status: trace.StreamOK, BatchLimit: 64}
		return trace.WriteFrame(conn, trace.FrameStreamOpenOK, trace.MarshalStreamOpenOK(ok))
	})
	const ioTimeout = 200 * time.Millisecond
	m, err := client.NewMux(addr, client.Config{IOTimeout: ioTimeout})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	var sessions [2]*client.Session
	for i := range sessions {
		if sessions[i], err = m.Open("universal", 32); err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	errs := make(chan error, len(sessions))
	start := time.Now()
	for i, s := range sessions {
		go func() {
			_, err := s.Transcode(muxTxns(rand.New(rand.NewSource(int64(i))), 4, 32))
			errs <- err
		}()
	}
	for range sessions {
		if err := <-errs; err == nil {
			t.Error("Transcode against a gateway that never answers succeeded")
		}
	}
	if waited := time.Since(start); waited > 10*ioTimeout {
		t.Errorf("stalled answers took %v to fail, want about IOTimeout (%v)", waited, ioTimeout)
	}
}

// holdTracer parks the bdenc session once it has read its reply, before
// Transcode returns, until the test releases it.
type holdTracer struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (h *holdTracer) ObserveStage(scheme string, stage obs.Stage, _ time.Duration) {
	if scheme == "bdenc" && stage == obs.StageFrameRead && h.armed.CompareAndSwap(true, false) {
		h.entered <- struct{}{}
		<-h.release
	}
}

// replyCorruptConn hands the client one whole frame per Read and, once
// armed, flips the last byte of the next BatchReply for stream sid, so
// the client's check finds the reply damaged.
type replyCorruptConn struct {
	net.Conn
	sid     uint32
	armed   *atomic.Bool
	pending []byte
}

func (c *replyCorruptConn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		var hdr [4]byte
		if _, err := io.ReadFull(c.Conn, hdr[:]); err != nil {
			return 0, err
		}
		frame := make([]byte, 4+binary.LittleEndian.Uint32(hdr[:]))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(c.Conn, frame[4:]); err != nil {
			return 0, err
		}
		if len(frame) > trace.FrameHeaderBytes+4 && trace.FrameType(frame[4]) == trace.FrameBatchReply &&
			binary.LittleEndian.Uint32(frame[5:]) == c.sid && c.armed.CompareAndSwap(true, false) {
			frame[len(frame)-1] ^= 0xff
		}
		c.pending = frame
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

// TestMuxEpochHeldAcrossSiblingFailure pins when a sibling's failure of
// the connection moves a session's epoch. A bdenc session has read its
// reply but not yet returned it when a basexor sibling's damaged reply
// fails the connection, and the sibling redials. The bdenc reply was
// encoded before the failure, so its Transcode returns it with the epoch
// unmoved, and it decodes with the decoder as it stands; the epoch moves
// on the session's next call, whose reply comes from a fresh codec.
func TestMuxEpochHeldAcrossSiblingFailure(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := startGateway(t)
	var corrupt atomic.Bool
	hold := &holdTracer{entered: make(chan struct{}), release: make(chan struct{})}
	m, err := client.NewMux(srv.Addr(), client.Config{
		MaxRetries:   5,
		RetryBackoff: time.Millisecond,
		Tracer:       hold,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return &replyCorruptConn{Conn: conn, sid: 1, armed: &corrupt}, nil
		},
	})
	if err != nil {
		t.Fatalf("NewMux: %v", err)
	}
	defer m.Close()
	sb, err := m.Open("bdenc", 32)
	if err != nil {
		t.Fatalf("Open bdenc: %v", err)
	}
	sx, err := m.Open("basexor", 32)
	if err != nil {
		t.Fatalf("Open basexor: %v", err)
	}
	if sx.ID() != 1 {
		t.Fatalf("basexor stream id %d, want 1", sx.ID())
	}
	dec := muxDecoder(t, "bdenc")
	decoded := make([]byte, 32)
	rng := rand.New(rand.NewSource(61))
	type result struct {
		reply trace.BatchReply
		err   error
	}
	const rounds = 9 // odd rounds fail the connection; the last is clean
	last, bumps := sb.Epoch(), 0
	// Every batch varies one byte of a fixed base, so bdenc encodes most
	// records against values earlier batches left in its repository.
	base := muxTxns(rng, 1, 32)[0].Data
	for r := 0; r < rounds; r++ {
		txns := muxTxns(rng, 16, 32)
		for _, txn := range txns {
			k := rng.Intn(len(base))
			copy(txn.Data, base)
			txn.Data[k] ^= byte(1 + rng.Intn(255))
		}
		sibling := muxTxns(rng, 16, 32)
		fault := r%2 == 1
		hold.armed.Store(fault)
		done := make(chan result, 1)
		go func() {
			reply, err := sb.Transcode(txns)
			done <- result{reply, err}
		}()
		if fault {
			<-hold.entered
			corrupt.Store(true)
			_, err := sx.Transcode(sibling)
			hold.release <- struct{}{}
			if err != nil {
				t.Fatalf("round %d: basexor Transcode through a damaged reply: %v", r, err)
			}
		}
		res := <-done
		if res.err != nil {
			t.Fatalf("round %d: bdenc Transcode: %v", r, res.err)
		}
		if e := sb.Epoch(); e != last {
			dec.Reset()
			last = e
			bumps++
		}
		for j, rec := range res.reply.Records {
			e := coreEncoded(rec, sb.MetaBits())
			if err := dec.Decode(decoded, &e); err != nil || !bytes.Equal(decoded, txns[j].Data) {
				t.Fatalf("round %d record %d: bdenc reply does not decode (err %v) after %d epoch bumps", r, j, err, bumps)
			}
		}
	}
	if want := rounds / 2; bumps != want {
		t.Errorf("bdenc epoch bumps = %d, want %d: one per failed connection", bumps, want)
	}
	if got, want := sx.RetryStats().Reconnects, uint64(rounds/2); got != want {
		t.Errorf("basexor Reconnects = %d, want %d", got, want)
	}
	if got := sb.RetryStats().Reconnects; got != 0 {
		t.Errorf("bdenc Reconnects = %d, want 0: its sibling redialed", got)
	}
}
