package proxy_test

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// faultingFleet starts a proxy over two backends that kill a stream after
// two faults; faulty[i] makes backend i fault every batch. Stateless
// routing spreads a stream over both. The proxy probes each backend once,
// at start, and faultingFleet waits for those probes, so from then on a
// backend's connections_total counts only the proxy's upstream dials.
func faultingFleet(t *testing.T, faulty [2]bool) (*proxy.Proxy, [2]*server.Server) {
	t.Helper()
	bcfg := backendConfig()
	bcfg.FaultBudget = 2
	var srvs [2]*server.Server
	for i := range srvs {
		srv, err := server.New(bcfg)
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		if faulty[i] {
			srv.SetFaults(faults.MustNew(faults.Config{Seed: 1, ErrRate: 1}))
		}
		if err := srv.Start(); err != nil {
			t.Fatalf("server.Start: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
	}
	pcfg := proxyConfig(srvs[0].Addr(), srvs[1].Addr())
	pcfg.HealthInterval = time.Hour
	px := startProxy(t, pcfg)
	for _, srv := range srvs {
		deadline := time.Now().Add(5 * time.Second)
		for backendCount(t, srv, "bxtd_connections_total") < 1 {
			if time.Now().After(deadline) {
				t.Fatal("the proxy never probed a backend")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return px, srvs
}

// backendCount reads one unlabeled family from a backend's /metrics.
func backendCount(t *testing.T, srv *server.Server, name string) float64 {
	t.Helper()
	return metricValue(t, httpGet(t, "http://"+srv.MetricsAddr()+"/metrics"), name)
}

// TestProxiedStreamZeroKillReopens pins the re-open of a killed stream 0
// through the proxy: the proxy relays each kill, and the client re-opens
// stream 0 on the same connection. Each re-open must reach a backend as a
// fresh stream, so its faults count again and end in further kills,
// without the client ever redialing.
func TestProxiedStreamZeroKillReopens(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	px, srvs := faultingFleet(t, [2]bool{true, true})
	ccfg := retryClient()
	ccfg.MaxRetries = 12
	c, err := client.DialConfig(px.Addr(), "universal", 32, ccfg)
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	defer c.Close()
	if _, err := c.Transcode(makeTxns(rand.New(rand.NewSource(9)), 8, 32)); err == nil {
		t.Fatal("Transcode against an always-faulting backend succeeded")
	}
	kills := 0.0
	for _, srv := range srvs {
		kills += backendCount(t, srv, "bxtd_stream_kills_total")
	}
	if kills < 3 {
		t.Errorf("%v stream kills across the backends, want at least 3: a re-opened stream 0 never reached a backend", kills)
	}
	if got := c.RetryStats().Reconnects; got != 0 {
		t.Errorf("client reconnected %d times; a stream kill must not cost the connection", got)
	}
}

// TestProxiedKillReopensFresh pins that a stream re-opened after a kill
// starts fresh on every backend it reaches, with no upstream connection
// lost on the way. Retries are off, so the client sees every answer.
//
// With both backends faulting, each kills the stream in turn, and every
// kill must follow as many batch faults as the first: a stream 0 left as
// it was on the other upstream would carry its faults into the re-open
// and die sooner. Each backend there kills the stream before the proxy
// hears of the other's kill, so a close sent for it would meet a stream
// the backend no longer has, which ends the upstream session.
//
// With one backend faulting, the healthy backend still has the stream
// when the other kills it, and must re-open it afresh too.
func TestProxiedKillReopensFresh(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faulty [2]bool
	}{
		{"both-faulting", [2]bool{true, true}},
		{"one-faulting", [2]bool{true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			px, srvs := faultingFleet(t, tc.faulty)
			ccfg := retryClient()
			ccfg.MaxRetries = 0
			c, err := client.DialConfig(px.Addr(), "universal", 32, ccfg)
			if err != nil {
				t.Fatalf("dial through proxy: %v", err)
			}
			defer c.Close()
			txns := makeTxns(rand.New(rand.NewSource(9)), 8, 32)
			var runs []int // batch faults before each kill
			n := 0
			for i := 0; i < 20; i++ {
				_, err := c.Transcode(txns)
				switch {
				case err == nil && !tc.faulty[1]:
				case errors.Is(err, client.ErrStreamKilled):
					runs, n = append(runs, n), 0
				case errors.Is(err, client.ErrBatchFault):
					n++
				default:
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			if len(runs) < 3 {
				t.Fatalf("%d kills in 20 batches, want at least 3", len(runs))
			}
			for i, r := range runs[1:] {
				if r != runs[0] {
					t.Errorf("kill %d followed %d batch faults, the first %d: a re-opened stream kept an old stream's faults", i+2, r, runs[0])
				}
			}
			for i, srv := range srvs {
				// The start probe, then one upstream, never redialed.
				if got := backendCount(t, srv, "bxtd_connections_total"); got != 2 {
					t.Errorf("backend %d served %v connections, want 2: an upstream session was lost", i, got)
				}
			}
			if !tc.faulty[1] {
				// The probe's stream and the upstream Hello's, then one
				// fresh open for every kill the next batches follow.
				if got, want := backendCount(t, srvs[1], "bxtd_streams_total"), float64(2+len(runs)-1); got < want {
					t.Errorf("healthy backend opened %v streams, want at least %v: the stream it held was never re-opened", got, want)
				}
			}
			if got := c.RetryStats().Reconnects; got != 0 {
				t.Errorf("client reconnected %d times; a stream kill must not cost the connection", got)
			}
		})
	}
}

// TestProxiedKillLandsOnItsStream pins that a backend's kill notice
// reaches the stream it names and no other. A raw client opens a bdenc
// stream 1 beside its basexor stream 0 on one proxy, in front of one
// backend that kills a stream after two faults, and sends two batches on
// stream 1 whose envelopes are sound but whose payloads are garbage: the
// backend answers both with a BatchError and then kills stream 1 with an
// unprompted StreamClosed. Stream 0's next batch must be served, with no
// backend failure counted, no batch converted and no backend connection
// redialed, and the client must hear of the kill — at the latest as the
// answer to stream 1's next batch — instead of that batch being served by
// a stream 1 re-opened behind its back.
func TestProxiedKillLandsOnItsStream(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	bcfg := backendConfig()
	bcfg.FaultBudget = 2
	srv := startBackend(t, bcfg)
	pcfg := proxyConfig(srv.Addr())
	pcfg.HealthInterval = time.Hour
	px := startProxy(t, pcfg)

	conn, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	send := func(ft trace.FrameType, body []byte) {
		t.Helper()
		if err := trace.WriteFrame(conn, ft, body); err != nil {
			t.Fatalf("writing frame %#x: %v", ft, err)
		}
	}
	recv := func() (trace.FrameType, []byte) {
		t.Helper()
		ft, body, err := trace.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("reading an answer: %v", err)
		}
		return ft, body
	}
	hello, err := trace.MarshalHello(trace.Hello{Version: trace.ProtocolVersion, TxnSize: 32, Scheme: "basexor"})
	if err != nil {
		t.Fatal(err)
	}
	send(trace.FrameHello, hello)
	if ft, body := recv(); ft != trace.FrameHelloOK {
		t.Fatalf("hello answered with frame %#x (%q)", ft, body)
	}
	open, err := trace.MarshalStreamOpen(trace.StreamOpen{ID: 1, TxnSize: 32, Scheme: "bdenc"})
	if err != nil {
		t.Fatal(err)
	}
	send(trace.FrameStreamOpen, open)
	if ft, body := recv(); ft != trace.FrameStreamOpenOK {
		t.Fatalf("stream open answered with frame %#x (%q)", ft, body)
	}
	// The start probe and the session's one backend connection.
	dials := backendCount(t, srv, "bxtd_connections_total")

	rng := rand.New(rand.NewSource(3))
	batch := func(sid uint32, id uint64, payload []byte) []byte {
		body := trace.AppendTraceEnvelope(trace.AppendStreamID(nil, sid), id, 0x5eed00+id)
		body = append(body, payload...)
		if err := trace.SealBatchEnvelope(body[4:]); err != nil {
			t.Fatal(err)
		}
		return body
	}
	good := func(sid uint32, id uint64) []byte {
		payload, err := trace.AppendBatch(nil, makeTxns(rng, 8, 32), 32)
		if err != nil {
			t.Fatal(err)
		}
		return batch(sid, id, payload)
	}
	killed := false
	// await reads until the answer to stream sid's batch id arrives, and
	// returns its frame type; a StreamClosed for stream 1 is noted on the
	// way.
	await := func(sid uint32, id uint64) trace.FrameType {
		t.Helper()
		for {
			ft, body := recv()
			if ft == trace.FrameStreamClosed {
				rsid, msg, err := trace.ParseStreamClosed(body)
				if err != nil {
					t.Fatalf("malformed StreamClosed: %v", err)
				}
				if rsid != 1 {
					t.Fatalf("stream %d closed (%q); only stream 1 was killed", rsid, msg)
				}
				killed = true
				if sid == 1 {
					return ft
				}
				continue
			}
			a, err := trace.CheckBatch(ft, body, sid, id, 0x5eed00+id)
			if err != nil {
				t.Fatalf("answer to batch %d on stream %d: frame %#x: %v", id, sid, ft, err)
			}
			if a.Kind == trace.AnswerFault {
				t.Logf("stream %d batch %d: BatchError %q", sid, id, a.Msg)
			}
			return ft
		}
	}

	for id := uint64(1); id <= 2; id++ {
		send(trace.FrameBatch, batch(1, id, []byte("not a batch body")))
		if ft := await(1, id); ft != trace.FrameBatchError {
			t.Fatalf("garbage batch %d on stream 1 answered with frame %#x, want BatchError", id, ft)
		}
	}
	send(trace.FrameBatch, good(0, 1))
	if ft := await(0, 1); ft != trace.FrameBatchReply {
		t.Errorf("stream 0's batch after stream 1's kill answered with frame %#x, want a BatchReply", ft)
	}
	send(trace.FrameBatch, good(1, 3))
	if ft := await(1, 3); ft != trace.FrameStreamClosed || !killed {
		t.Errorf("stream 1's batch after its kill answered with frame %#x, and a kill heard: %v; want the kill, at the latest as this answer", ft, killed)
	}

	exp := httpGet(t, "http://"+px.MetricsAddr()+"/metrics")
	if got := backendMetric(t, exp, "bxtproxy_backend_failures_total", srv.Addr()); got != 0 {
		t.Errorf("bxtproxy_backend_failures_total = %v, want 0: a kill notice was read as a damaged answer", got)
	}
	if got := metricValue(t, exp, "bxtproxy_busy_converted_total"); got != 0 {
		t.Errorf("bxtproxy_busy_converted_total = %v, want 0", got)
	}
	if got := backendCount(t, srv, "bxtd_connections_total"); got != dials {
		t.Errorf("the backend served %v connections, %v before the kill: the session's connection was redialed", got, dials)
	}
}
