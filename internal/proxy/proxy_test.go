package proxy_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// backendConfig is a quiet loopback bxtd for proxy tests.
func backendConfig() config.Server {
	cfg := config.DefaultServer()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.LogLevel = "error"
	return cfg
}

func startBackend(t *testing.T, cfg config.Server) *server.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// proxyConfig is a quiet loopback bxtproxy with intervals tightened for
// test time: fast probes, fast ejection, a small retry hint.
func proxyConfig(backends ...string) config.Proxy {
	cfg := config.DefaultProxy()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.Backends = backends
	cfg.LogLevel = "error"
	cfg.HealthInterval = 50 * time.Millisecond
	cfg.EjectThreshold = 2
	cfg.RetryHint = 2 * time.Millisecond
	cfg.ReadTimeout = 10 * time.Second
	cfg.WriteTimeout = 5 * time.Second
	// Below the clients' IOTimeout, so a stalled backend converts to a
	// recoverable reply while the client is still listening.
	cfg.ExchangeTimeout = 2 * time.Second
	cfg.DrainTimeout = 5 * time.Second
	return cfg
}

func startProxy(t *testing.T, cfg config.Proxy) *proxy.Proxy {
	t.Helper()
	px, err := proxy.New(cfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	if err := px.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(func() { px.Close() })
	return px
}

// retryClient is a client config that rides out failover conversions.
func retryClient() client.Config {
	return client.Config{
		MaxRetries:      40,
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 10 * time.Millisecond,
		IOTimeout:       8 * time.Second,
		DialTimeout:     5 * time.Second,
	}
}

func makeTxns(rng *rand.Rand, n, size int) []trace.Transaction {
	txns := make([]trace.Transaction, n)
	for i := range txns {
		data := make([]byte, size)
		rng.Read(data)
		kind := trace.Write
		if rng.Intn(2) == 1 {
			kind = trace.Read
		}
		txns[i] = trace.Transaction{Addr: rng.Uint64(), Kind: kind, Data: data}
	}
	return txns
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}

// metricValue extracts one sample from a Prometheus text exposition; name
// must include any label set, e.g. `x_total{backend="127.0.0.1:1"}`.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s: bad value %q", name, rest)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

func backendMetric(t *testing.T, exposition, name, addr string) float64 {
	t.Helper()
	return metricValue(t, exposition, fmt.Sprintf("%s{backend=%q}", name, addr))
}

// verifySession streams batches through c, decoding every returned record
// back against its source with dec (reset whenever the client epoch
// advances). It fails the test on any mismatch and returns the count of
// epoch bumps observed.
func verifySession(t *testing.T, c *client.Client, dec core.Codec, rng *rand.Rand, batches, batchSize int) int {
	t.Helper()
	epochBumps := 0
	epoch := c.Epoch()
	for bi := 0; bi < batches; bi++ {
		last := epoch
		if err := checkedBatch(c, dec, &epoch, makeTxns(rng, batchSize, c.TxnSize())); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		if epoch != last {
			epochBumps++
		}
	}
	return epochBumps
}

// transcoder is what a plain client and a mux session share.
type transcoder interface {
	Transcode([]trace.Transaction) (trace.BatchReply, error)
	Epoch() uint64
	MetaBits() int
	TxnSize() int
}

// checkedBatch sends one batch through c and decodes every record back
// against its source with dec, resetting dec first when c's epoch has
// moved past *epoch.
func checkedBatch(c transcoder, dec core.Codec, epoch *uint64, txns []trace.Transaction) error {
	reply, err := c.Transcode(txns)
	if err != nil {
		return fmt.Errorf("Transcode: %w", err)
	}
	if e := c.Epoch(); e != *epoch {
		dec.Reset()
		*epoch = e
	}
	if len(reply.Records) != len(txns) {
		return fmt.Errorf("%d records for %d transactions", len(reply.Records), len(txns))
	}
	decoded := make([]byte, c.TxnSize())
	for j, rec := range reply.Records {
		e := core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: c.MetaBits()}
		if err := dec.Decode(decoded, &e); err != nil {
			return fmt.Errorf("record %d: decode: %w", j, err)
		}
		if !bytes.Equal(decoded, txns[j].Data) {
			return fmt.Errorf("record %d: decode mismatch", j)
		}
	}
	return nil
}

func buildDecoder(t *testing.T, name string) core.Codec {
	t.Helper()
	dec, err := scheme.New(name)
	if err != nil {
		t.Fatalf("scheme.New(%s): %v", name, err)
	}
	return dec
}

// TestProxyRelay proves the basic relay path: a client session through
// a one-backend proxy behaves exactly like a direct session — handshake
// fields come from the backend, every record decodes back to its source,
// and both tiers account the batches on /metrics.
func TestProxyRelay(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	srv := startBackend(t, bcfg)
	px := startProxy(t, proxyConfig(srv.Addr()))

	c, err := client.DialConfig(px.Addr(), "basexor", 32, retryClient())
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	defer c.Close()
	if c.BatchLimit() != bcfg.BatchLimit {
		t.Errorf("BatchLimit %d did not relay from backend (want %d)", c.BatchLimit(), bcfg.BatchLimit)
	}

	rng := rand.New(rand.NewSource(1))
	verifySession(t, c, buildDecoder(t, "basexor"), rng, 10, 16)

	exp := httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
	if got := backendMetric(t, exp, "bxtproxy_backend_batches_total", srv.Addr()); got != 10 {
		t.Errorf("bxtproxy_backend_batches_total = %v, want 10", got)
	}
	if got := backendMetric(t, exp, "bxtproxy_backend_up", srv.Addr()); got != 1 {
		t.Errorf("bxtproxy_backend_up = %v, want 1", got)
	}

	// The proxy's per-backend wire telemetry is rebuilt from the relayed
	// BatchStats, so its ones counters must equal the gateway's own
	// unified families for the same traffic.
	bexp := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	for _, leg := range []string{"baseline", "encoded"} {
		got := metricValue(t, exp, fmt.Sprintf("bxtproxy_wire_ones_total{backend=%q,leg=%q}", srv.Addr(), leg))
		want := metricValue(t, bexp, fmt.Sprintf(`bxtd_wire_ones_total{scheme="basexor",leg=%q}`, leg))
		if got != want {
			t.Errorf("bxtproxy_wire_ones_total{leg=%q} = %v, backend accounts %v", leg, got, want)
		}
		metricValue(t, exp, fmt.Sprintf("bxtproxy_energy_joules_per_byte{backend=%q,leg=%q}", srv.Addr(), leg))
	}
	// Random traffic through basexor need not save energy; only require
	// the family to be present and parseable.
	metricValue(t, exp, fmt.Sprintf("bxtproxy_energy_saved_joules_total{backend=%q}", srv.Addr()))
	if got := metricValue(t, exp, "bxtproxy_trace_spans_total"); got != 10 {
		t.Errorf("bxtproxy_trace_spans_total = %v, want 10", got)
	}
}

// TestProxyFaultPathLedger drills a converted batch: the backend ends
// the session's idle upstream, so the next batch's exchange fails and is
// answered with a converted Busy, which the client retries. A raw client
// then sends five batches in one Write, so their answers are held and
// leave together: a converted Busy, a corrupted envelope the proxy answers
// itself, and three relayed replies, two of them on one stream. One
// scrape, taken once both clients hold every answer, must count
// backend_exchange for every exchange attempted, frame_read for every
// batch frame answered, and frame_write and bxtproxy_trace_spans_total for
// every reply relayed; each relayed reply's span is recorded once, under
// its own trace id.
func TestProxyFaultPathLedger(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	bcfg.ReadTimeout = 200 * time.Millisecond
	srv := startBackend(t, bcfg)
	px := startProxy(t, proxyConfig(srv.Addr()))

	c, err := client.DialConfig(px.Addr(), "basexor", 32, retryClient())
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	defer c.Close()
	raw := dialRawBurst(t, px.Addr())
	rng := rand.New(rand.NewSource(5))
	dec := buildDecoder(t, "basexor")
	verifySession(t, c, dec, rng, 5, 16)
	time.Sleep(600 * time.Millisecond) // past the backend's idle timeout
	verifySession(t, c, dec, rng, 5, 16)

	busy := float64(c.RetryStats().Busy)
	if busy == 0 {
		t.Fatal("no batch was converted; the drill proved nothing")
	}

	// The raw client's upstream idled out too, so its first batch is
	// converted; the second has a corrupted envelope.
	type sent struct {
		sid         uint32
		id, traceID uint64
	}
	burst := []sent{{0, 1, 0x7ace01}, {0, 2, 0x7ace02}, {1, 1, 0x7ace03}, {1, 2, 0x7ace04}, {0, 3, 0x7ace05}}
	var wire []byte
	for _, b := range burst {
		body := trace.AppendTraceEnvelope(trace.AppendStreamID(nil, b.sid), b.id, b.traceID)
		body, err := trace.AppendBatch(body, makeTxns(rng, 16, 32), 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.SealBatchEnvelope(body[4:]); err != nil {
			t.Fatal(err)
		}
		if b.id == 2 && b.sid == 0 {
			body[4+20] ^= 0x10 // inside the sealed payload
		}
		if wire, err = trace.AppendFrame(wire, trace.FrameBatch, body); err != nil {
			t.Fatal(err)
		}
	}
	raw.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := raw.conn.Write(wire); err != nil {
		t.Fatalf("writing the burst: %v", err)
	}
	want := []trace.FrameType{trace.FrameBusy, trace.FrameBatchError, trace.FrameBatchReply, trace.FrameBatchReply, trace.FrameBatchReply}
	for i, b := range burst {
		ft, body, err := trace.ReadFrame(raw.br, nil)
		if err != nil {
			t.Fatalf("reading the answer to burst batch %d: %v", i, err)
		}
		a, err := trace.CheckBatch(ft, body, b.sid, b.id, b.traceID)
		if err != nil || ft != want[i] {
			t.Fatalf("burst batch %d (stream %d, id %d) answered with frame %#x (%+v, err %v), want %#x", i, b.sid, b.id, ft, a, err, want[i])
		}
	}

	exp := httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
	stage := func(s obs.Stage) float64 {
		return metricValue(t, exp, fmt.Sprintf(`bxtproxy_stage_seconds_count{scheme="basexor",stage=%q}`, s))
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"frame_read", stage(obs.StageFrameRead), 10 + busy + 5},
		{"backend_exchange", stage(obs.StageBackend), 10 + busy + 4},
		{"frame_write", stage(obs.StageFrameWrite), 10 + 3},
		{"bxtproxy_trace_spans_total", metricValue(t, exp, "bxtproxy_trace_spans_total"), 10 + 3},
		{"bxtproxy_busy_converted_total", metricValue(t, exp, "bxtproxy_busy_converted_total"), busy + 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	for _, b := range burst[2:] {
		doc := getTrace(t, px.MetricsAddr(), b.traceID)
		if len(doc.Spans) != 1 {
			t.Errorf("trace %#x: %d spans on /debug/trace, want 1", b.traceID, len(doc.Spans))
			continue
		}
		wrote := 0
		for _, st := range doc.Spans[0].Stages {
			if st.Stage == string(obs.StageFrameWrite) {
				wrote++
			}
		}
		if wrote != 1 {
			t.Errorf("trace %#x: span has %d frame_write stages, want 1", b.traceID, wrote)
		}
	}
}

// rawBurst is a BXTP client speaking frames by hand, for sending several
// in one Write.
type rawBurst struct {
	conn net.Conn
	br   *bufio.Reader
}

// dialRawBurst opens a basexor session with stream 1 open beside stream
// 0, both for 32-byte transactions.
func dialRawBurst(t *testing.T, addr string) *rawBurst {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := &rawBurst{conn: conn, br: bufio.NewReader(conn)}
	hello, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: 32, Scheme: "basexor"})
	if err != nil {
		t.Fatal(err)
	}
	open, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: 1, TxnSize: 32, Scheme: "basexor"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		ft, want trace.FrameType
		body     []byte
	}{{trace.FrameHello, trace.FrameHelloOK, hello}, {trace.FrameStreamOpen, trace.FrameStreamOpenOK, open}} {
		if err := trace.WriteFrame(conn, f.ft, f.body); err != nil {
			t.Fatalf("writing frame %#x: %v", f.ft, err)
		}
		if ft, body, err := trace.ReadFrame(r.br, nil); err != nil || ft != f.want {
			t.Fatalf("frame %#x answered with %#x (%q), err %v", f.ft, ft, body, err)
		}
	}
	return r
}

// TestStatelessRetryAvoidsFaultingBackend puts a backend that answers
// every batch with a BatchError next to a healthy one. The faulting
// backend speaks BXTP fine, so it is never ejected, and it never serves a
// batch, so routing (fewest batches among near-ties) keeps choosing it
// first. Only the retry steering keeps a stateless stream's retry off it:
// with one retry allowed, every batch must succeed on the healthy
// backend.
func TestStatelessRetryAvoidsFaultingBackend(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	bad, err := server.New(bcfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	bad.SetFaults(faults.MustNew(faults.Config{Seed: 1, ErrRate: 1}))
	if err := bad.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	t.Cleanup(func() { bad.Close() })
	good := startBackend(t, bcfg)
	px := startProxy(t, proxyConfig(bad.Addr(), good.Addr()))

	ccfg := retryClient()
	ccfg.MaxRetries = 1
	c, err := client.DialConfig(px.Addr(), "universal", 32, ccfg)
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	defer c.Close()
	// Ten batches stay below the faulting backend's per-stream fault
	// budget, so it never kills the upstream stream.
	verifySession(t, c, buildDecoder(t, "universal"), rand.New(rand.NewSource(3)), 10, 16)
	if got := c.RetryStats().BatchErrors; got == 0 {
		t.Error("no batch reached the faulting backend; the test proved nothing")
	}
	if got := c.RetryStats().Reconnects; got != 0 {
		t.Errorf("client reconnected %d times", got)
	}
}

// TestProxyStatelessSpread proves least-pending routing fans one
// stateless session's batches across every healthy backend.
func TestProxyStatelessSpread(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, startBackend(t, bcfg).Addr())
	}
	px := startProxy(t, proxyConfig(addrs...))

	c, err := client.DialConfig(px.Addr(), "universal", 32, retryClient())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(2))
	verifySession(t, c, buildDecoder(t, "universal"), rng, 30, 8)

	exp := httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
	for _, a := range addrs {
		if got := backendMetric(t, exp, "bxtproxy_backend_batches_total", a); got == 0 {
			t.Errorf("backend %s served no batches; stateless traffic did not spread", a)
		}
	}
}

// TestProxyPinnedSession proves a decode-stateful scheme routes every
// batch to one backend: splitting the stream would desynchronize the
// client's decoder, so the pin gauge must show exactly one placement and
// exactly one backend must have served the session.
func TestProxyPinnedSession(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, startBackend(t, bcfg).Addr())
	}
	px := startProxy(t, proxyConfig(addrs...))

	c, err := client.DialConfig(px.Addr(), "bdenc", 32, retryClient())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	verifySession(t, c, buildDecoder(t, "bdenc"), rng, 30, 8)

	exp := httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
	served, pinnedGauge := 0, 0.0
	for _, a := range addrs {
		if got := backendMetric(t, exp, "bxtproxy_backend_batches_total", a); got > 0 {
			served++
			if got != 30 {
				t.Errorf("pinned backend %s served %v batches, want all 30", a, got)
			}
		}
		pinnedGauge += backendMetric(t, exp, "bxtproxy_backend_pinned_sessions", a)
	}
	if served != 1 {
		t.Errorf("pinned session touched %d backends, want exactly 1", served)
	}
	if pinnedGauge != 1 {
		t.Errorf("pinned-session gauge sums to %v across backends, want 1", pinnedGauge)
	}
}

// TestProxyFailoverStateless kills one of two backends mid-session: the
// stateless client must ride the Busy conversion onto the survivor with
// zero decode mismatches and zero reconnects.
func TestProxyFailoverStateless(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	srvA := startBackend(t, bcfg)
	srvB := startBackend(t, bcfg)
	px := startProxy(t, proxyConfig(srvA.Addr(), srvB.Addr()))

	c, err := client.DialConfig(px.Addr(), "basexor", 32, retryClient())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(4))
	dec := buildDecoder(t, "basexor")
	verifySession(t, c, dec, rng, 10, 8)

	if err := srvA.Close(); err != nil {
		t.Fatalf("closing backend A: %v", err)
	}
	verifySession(t, c, dec, rng, 20, 8)

	stats := c.RetryStats()
	if stats.Reconnects != 0 {
		t.Errorf("client reconnected %d times; failover must never cost the client its connection", stats.Reconnects)
	}
	exp := httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
	if got := metricValue(t, exp, "bxtproxy_busy_converted_total"); got == 0 && stats.Busy == 0 {
		t.Log("backend died between batches; no in-flight conversion was needed")
	}
	if got := backendMetric(t, exp, "bxtproxy_backend_batches_total", srvB.Addr()); got < 20 {
		t.Errorf("survivor served %v batches, want >= 20 (all post-kill traffic)", got)
	}
}

// TestProxyFailoverPinned kills a pinned session's backend: the session
// must re-pin to the survivor and the client must observe exactly the
// epoch bump its decoder needs, with zero mismatches and no disconnect.
func TestProxyFailoverPinned(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	srvA := startBackend(t, bcfg)
	srvB := startBackend(t, bcfg)
	px := startProxy(t, proxyConfig(srvA.Addr(), srvB.Addr()))

	c, err := client.DialConfig(px.Addr(), "bdenc", 32, retryClient())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(5))
	dec := buildDecoder(t, "bdenc")
	verifySession(t, c, dec, rng, 10, 8)

	// Find and kill the backend the session pinned to.
	exp := httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
	pinnedSrv, survivor := srvA, srvB
	if backendMetric(t, exp, "bxtproxy_backend_pinned_sessions", srvB.Addr()) == 1 {
		pinnedSrv, survivor = srvB, srvA
	}
	if err := pinnedSrv.Close(); err != nil {
		t.Fatalf("closing pinned backend: %v", err)
	}

	bumps := verifySession(t, c, dec, rng, 20, 8)
	if bumps == 0 {
		t.Error("pin migration produced no epoch bump; the decoder would have desynchronized")
	}
	if got := c.RetryStats().Reconnects; got != 0 {
		t.Errorf("client reconnected %d times; pin failover must not cost the connection", got)
	}
	exp = httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
	if got := metricValue(t, exp, "bxtproxy_repins_total"); got < 1 {
		t.Errorf("bxtproxy_repins_total = %v, want >= 1", got)
	}
	if got := metricValue(t, exp, "bxtproxy_batch_error_converted_total"); got < 1 {
		t.Errorf("bxtproxy_batch_error_converted_total = %v, want >= 1", got)
	}
	if got := backendMetric(t, exp, "bxtproxy_backend_pinned_sessions", survivor.Addr()); got != 1 {
		t.Errorf("survivor pin gauge = %v, want 1", got)
	}
}

// TestProxyEjectAndRestore proves the health prober's ejection state
// machine: a dead backend leaves routing (up=0), and restarting a backend
// on the same address restores it (up=1) without operator action.
func TestProxyEjectAndRestore(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	srv := startBackend(t, bcfg)
	addr := srv.Addr()
	px := startProxy(t, proxyConfig(addr))

	waitUp := func(want float64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			exp := httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
			if backendMetric(t, exp, "bxtproxy_backend_up", addr) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("backend up gauge never reached %v", want)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	waitUp(1)
	if err := srv.Close(); err != nil {
		t.Fatalf("closing backend: %v", err)
	}
	waitUp(0)

	bcfg2 := bcfg
	bcfg2.ListenAddr = addr
	startBackend(t, bcfg2)
	waitUp(1)
}

// TestProxyDrain proves graceful shutdown: /healthz flips to 503, a
// post-drain dial is refused, and Shutdown returns once idle sessions
// wind down.
func TestProxyDrain(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	srv := startBackend(t, bcfg)
	px := startProxy(t, proxyConfig(srv.Addr()))

	c, err := client.DialConfig(px.Addr(), "basexor", 32, retryClient())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(7))
	verifySession(t, c, buildDecoder(t, "basexor"), rng, 3, 8)

	done := make(chan error, 1)
	go func() { done <- px.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an idle session")
	}
	if _, err := client.DialConfig(px.Addr(), "basexor", 32, client.Config{DialTimeout: time.Second, MaxRetries: 0}); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}
