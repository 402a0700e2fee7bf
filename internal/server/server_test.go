package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/trace"
	"github.com/hpca18/bxt/internal/workload"
)

// testConfig returns a loopback configuration with ephemeral ports and
// test-friendly timeouts.
func testConfig() config.Server {
	cfg := config.DefaultServer()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.Workers = 4
	cfg.LogLevel = "error" // keep test output quiet
	cfg.ReadTimeout = 5 * time.Second
	cfg.WriteTimeout = 5 * time.Second
	cfg.DrainTimeout = 10 * time.Second
	return cfg
}

// startServer builds, starts and auto-closes a server.
func startServer(t testing.TB, cfg config.Server) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// makeTxns builds a deterministic payload mix: random sectors, all-zero
// sectors, and repeated-element sectors (the stream shapes the encoders
// care about).
func makeTxns(rng *rand.Rand, n, txnSize int) []trace.Transaction {
	txns := make([]trace.Transaction, n)
	for i := range txns {
		data := make([]byte, txnSize)
		switch i % 4 {
		case 0: // random
			rng.Read(data)
		case 1: // all zero
		case 2: // repeated 4-byte element
			var elem [4]byte
			rng.Read(elem[:])
			for off := 0; off < txnSize; off += 4 {
				copy(data[off:off+4], elem[:])
			}
		case 3: // mixed zero / non-zero elements
			rng.Read(data)
			for off := 0; off+8 <= txnSize; off += 8 {
				copy(data[off:off+4], []byte{0, 0, 0, 0})
			}
		}
		kind := trace.Read
		if i%3 == 0 {
			kind = trace.Write
		}
		txns[i] = trace.Transaction{Addr: uint64(i * txnSize), Kind: kind, Data: data}
	}
	return txns
}

// streamAndVerify runs one client session: it streams total transactions
// in batches, decodes every reply record with a fresh decoder instance,
// and checks the round trip and the batch accounting. It returns the sum of
// the BatchStats the client received.
func streamAndVerify(addr, schemeName string, seed int64, total, batchSize, txnSize int) (trace.BatchStats, error) {
	c, err := client.Dial(addr, schemeName, txnSize)
	if err != nil {
		return trace.BatchStats{}, fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	dec, err := scheme.New(schemeName)
	if err != nil {
		return trace.BatchStats{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	decoded := make([]byte, txnSize)
	var sum trace.BatchStats
	for sent := 0; sent < total; {
		n := batchSize
		if total-sent < n {
			n = total - sent
		}
		txns := makeTxns(rng, n, txnSize)
		reply, err := c.Transcode(txns)
		if err != nil {
			return trace.BatchStats{}, fmt.Errorf("transcode after %d txns: %w", sent, err)
		}
		if got := int(reply.Stats.Transactions); got != n {
			return trace.BatchStats{}, fmt.Errorf("reply counted %d transactions, sent %d", got, n)
		}
		if reply.Stats.DataBits != uint64(n*txnSize*8) {
			return trace.BatchStats{}, fmt.Errorf("reply counted %d data bits, want %d", reply.Stats.DataBits, n*txnSize*8)
		}
		for i, rec := range reply.Records {
			e := core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: c.MetaBits()}
			if err := dec.Decode(decoded, &e); err != nil {
				return trace.BatchStats{}, fmt.Errorf("decoding record %d of batch at %d: %w", i, sent, err)
			}
			if !bytes.Equal(decoded, txns[i].Data) {
				return trace.BatchStats{}, fmt.Errorf("record %d of batch at %d does not decode to the original sector", i, sent)
			}
		}
		sum.Add(reply.Stats)
		sent += n
	}
	if int(sum.Transactions) != total {
		return trace.BatchStats{}, fmt.Errorf("session total %d transactions, want %d", sum.Transactions, total)
	}
	if sum.BaselinePJ <= 0 || sum.EncodedPJ <= 0 {
		return trace.BatchStats{}, fmt.Errorf("energy accounting missing: baseline %v pJ, encoded %v pJ", sum.BaselinePJ, sum.EncodedPJ)
	}
	return sum, nil
}

// TestGatewayEndToEnd is the serving acceptance test: 8 concurrent
// connections each streaming 10k transactions through two schemes (one
// stateless, one repository-based), with every frame decoded back to the
// original sector by an independent decoder.
func TestGatewayEndToEnd(t *testing.T) {
	const (
		conns       = 8
		txnsPerConn = 10000
		batchSize   = 500
		txnSize     = 32
	)
	srv := startServer(t, testConfig())
	schemes := []string{"universal", "bdenc"}

	var wg sync.WaitGroup
	errs := make([]error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = streamAndVerify(srv.Addr(), schemes[i%len(schemes)], int64(1000+i), txnsPerConn, batchSize, txnSize)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("connection %d (%s): %v", i, schemes[i%len(schemes)], err)
		}
	}

	// The gateway's counters must account every transaction, per scheme.
	body := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	for _, name := range schemes {
		want := fmt.Sprintf("bxtd_transactions_total{scheme=%q} %d", name, conns/len(schemes)*txnsPerConn)
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "bxtd_draining 0") {
		t.Error("metrics should report bxtd_draining 0 while serving")
	}
}

func httpGet(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(b)
}

// TestGracefulShutdown holds a batch in flight with the server's test
// hook, starts a shutdown, and verifies the documented drain sequence:
// /healthz flips to draining, the listener refuses new connections, the
// in-flight batch completes and its reply is delivered, and Shutdown
// returns cleanly.
func TestGracefulShutdown(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookBatch = func() {
		once.Do(func() {
			close(inFlight)
			<-release
		})
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	c, err := client.Dial(srv.Addr(), "universal", 32)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(42))
	txns := makeTxns(rng, 64, 32)
	transcodeDone := make(chan error, 1)
	go func() {
		reply, err := c.Transcode(txns)
		if err == nil && int(reply.Stats.Transactions) != len(txns) {
			err = fmt.Errorf("reply counted %d transactions, want %d", reply.Stats.Transactions, len(txns))
		}
		transcodeDone <- err
	}()
	<-inFlight // the batch is now mid-encode on the server

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// /healthz flips to draining while the batch is still in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + srv.MetricsAddr() + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !strings.Contains(string(b), "draining") {
				t.Fatalf("healthz body %q, want draining", b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to draining")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The listener is closed: new sessions are refused.
	if _, err := client.Dial(srv.Addr(), "universal", 32); err == nil {
		t.Error("Dial succeeded during drain, want refusal")
	}

	// The in-flight batch completes and its reply reaches the client.
	close(release)
	if err := <-transcodeDone; err != nil {
		t.Errorf("in-flight batch did not complete cleanly: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}

	// The drained session is closed: further batches fail.
	if _, err := c.Transcode(txns); err == nil {
		t.Error("Transcode after shutdown succeeded, want error")
	}
}

// TestConnectionLimit verifies that sessions beyond MaxConns are refused
// with a protocol error and that slots free up when sessions close.
func TestConnectionLimit(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConns = 1
	srv := startServer(t, cfg)

	c1, err := client.Dial(srv.Addr(), "universal", 32)
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	defer c1.Close()

	_, err = client.Dial(srv.Addr(), "universal", 32)
	if !errors.Is(err, client.ErrServer) || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("Dial 2 = %v, want capacity refusal", err)
	}

	c1.Close()
	// The slot frees asynchronously as the session unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := client.Dial(srv.Addr(), "universal", 32)
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHandshakeRejectsUnknownScheme verifies the error path a client sees
// for a scheme the registry does not know, and for a geometry the stream's
// encode entry rejects: the open probe refuses it at the handshake and at
// a StreamOpen alike, before any batch.
func TestHandshakeRejectsUnknownScheme(t *testing.T) {
	srv := startServer(t, testConfig())
	_, err := client.Dial(srv.Addr(), "turbo-xor", 32)
	if !errors.Is(err, client.ErrServer) || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("Dial = %v, want unknown-scheme refusal", err)
	}

	// 32-byte transactions do not fill the 3-byte beats of a 24-bit
	// channel; 24-byte ones do.
	cfg := testConfig()
	cfg.ChannelWidthBits = 24
	odd := startServer(t, cfg)
	const refusal = "cannot serve 32-byte transactions on a 24-bit channel"
	if _, err := client.Dial(odd.Addr(), "universal", 32); !errors.Is(err, client.ErrServer) || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("Dial = %v, want a refusal that says it %s", err, refusal)
	}
	r := dialRaw(t, odd.Addr(), "universal", 24)
	open, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: 1, TxnSize: 32, Scheme: "universal"})
	if err != nil {
		t.Fatal(err)
	}
	r.send(trace.FrameStreamOpen, open)
	ft, body := r.recv()
	if ft != trace.FrameStreamOpenOK {
		t.Fatalf("StreamOpen answered with frame %#x (%q)", ft, body)
	}
	if ok, err := trace.ParseStreamOpenOK(body); err != nil || ok.Status != trace.StreamRefused || !strings.Contains(ok.Msg, refusal) {
		t.Fatalf("StreamOpenOK = %+v err %v, want a refusal that says it %s", ok, err, refusal)
	}
}

// TestIdleClientTimedOut verifies the read deadline tears down a session
// that stops sending, so it cannot hold resources forever.
func TestIdleClientTimedOut(t *testing.T) {
	cfg := testConfig()
	cfg.ReadTimeout = 100 * time.Millisecond
	srv := startServer(t, cfg)

	c, err := client.Dial(srv.Addr(), "universal", 32)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	time.Sleep(500 * time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	if _, err := c.Transcode(makeTxns(rng, 8, 32)); err == nil {
		t.Fatal("Transcode on idle-expired session succeeded, want error")
	}
}

// TestServerConfigRejected verifies New surfaces validation errors.
func TestServerConfigRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

// BenchmarkServerPipeline is the serving-layer baseline: one client
// streaming batches of real workload sectors through the full network
// path (frame, encode, bus accounting, reply).
func BenchmarkServerPipeline(b *testing.B) {
	for _, schemeName := range []string{"universal", "basexor", "bdenc"} {
		b.Run(schemeName, func(b *testing.B) {
			srv := startServer(b, testConfig())
			c, err := client.Dial(srv.Addr(), schemeName, 32)
			if err != nil {
				b.Fatalf("Dial: %v", err)
			}
			defer c.Close()

			const batchSize = 256
			app, ok := workload.ByName("rodinia-hotspot")
			var txns []trace.Transaction
			if ok && app.TxnBytes == 32 {
				if all := app.Trace(); len(all) >= batchSize {
					txns = all[:batchSize]
				}
			}
			if txns == nil {
				txns = makeTxns(rand.New(rand.NewSource(9)), batchSize, 32)
			}
			b.SetBytes(int64(batchSize * 32))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Transcode(txns); err != nil {
					b.Fatalf("Transcode: %v", err)
				}
			}
		})
	}
}
