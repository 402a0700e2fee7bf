package swarm_test

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/swarm"
	"github.com/hpca18/bxt/internal/testutil"
)

func startBackend(t *testing.T) *server.Server {
	t.Helper()
	cfg := config.DefaultServer()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.LogLevel = "error"
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

// startProxy starts a proxy over backends. A non-nil inj arms the fault
// injector on the backend leg before Start, as SetFaults requires: the
// health probes dial through it from the moment the proxy starts.
func startProxy(t *testing.T, inj *faults.Injector, backends ...string) *proxy.Proxy {
	t.Helper()
	cfg := config.DefaultProxy()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.Backends = backends
	cfg.LogLevel = "error"
	cfg.HealthInterval = 50 * time.Millisecond
	cfg.RetryHint = 2 * time.Millisecond
	// A dropped backend write otherwise stalls the stream for the full
	// default exchange timeout; chaos runs should fail over in
	// milliseconds, not seconds.
	cfg.ExchangeTimeout = 500 * time.Millisecond
	px, err := proxy.New(cfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	if inj != nil {
		px.SetFaults(inj)
	}
	if err := px.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(func() { px.Close() })
	return px
}

// swarmSize picks the run's scale: the short-mode CI variant keeps a few
// hundred streams over a handful of connections; the full run drives 50k+
// concurrent logical sessions over at most 64 TCP connections — the
// acceptance bar for v4 multiplexing.
func swarmSize(t *testing.T) (conns, streams int) {
	if testing.Short() {
		return 4, 200
	}
	return 64, 50_048
}

// checkSwarm asserts the invariants every swarm run must hold: no decode
// mismatch (cross-stream bleed) and no stream that failed outright. The
// healthy-fleet tests additionally require zero reconnects; the chaos run
// does not, because a corrupted open or handshake exchange is recovered
// by redialing — a reconnect is that recovery working, not a data loss.
func checkSwarm(t *testing.T, res swarm.Result) {
	t.Helper()
	for _, err := range res.Errors {
		t.Errorf("stream failure: %v", err)
	}
	if res.Mismatches != 0 {
		t.Errorf("decode mismatches = %d, want 0", res.Mismatches)
	}
	if res.Transactions == 0 {
		t.Error("swarm confirmed zero transactions")
	}
	t.Logf("swarm: %d streams / %d conns, %d txns in %v (%.0f txn/s), %d epoch bumps, %d retries",
		res.Streams, res.Conns, res.Transactions, res.Elapsed.Round(time.Millisecond),
		res.TxnPerSecond(), res.EpochBumps, res.Retry.Retries)
}

// TestSwarm drives the full multiplexing gauntlet through one proxy: tens
// of thousands of concurrent logical sessions share a few dozen TCP
// connections, every stream's nonce-stamped payloads decode back
// byte-identically, and no stream observes a disconnect. In -short mode a
// few hundred streams keep the same invariants cheap enough for CI.
func TestSwarm(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	b1, b2 := startBackend(t), startBackend(t)
	px := startProxy(t, nil, b1.Addr(), b2.Addr())

	conns, streams := swarmSize(t)
	res, err := swarm.Run(swarm.Config{
		Addr:    px.Addr(),
		Conns:   conns,
		Streams: streams,
		Client:  client.Config{MaxRetries: 8},
	})
	if err != nil {
		t.Fatalf("swarm.Run: %v", err)
	}
	checkSwarm(t, res)
	if res.Reconnects != 0 {
		t.Errorf("client reconnects = %d, want 0", res.Reconnects)
	}
	if res.EpochBumps != 0 {
		t.Errorf("epoch bumps on a healthy fleet = %d, want 0", res.EpochBumps)
	}
}

// TestSwarmDirect runs the same invariants against a bare gateway — no
// proxy in the path — pinning the server-side demux on its own.
func TestSwarmDirect(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := startBackend(t)
	conns, streams := swarmSize(t)
	if !testing.Short() {
		// The direct variant is a demux check, not the scale gauntlet;
		// keep the full run bounded.
		conns, streams = 16, 8_000
	}
	res, err := swarm.Run(swarm.Config{
		Addr:    srv.Addr(),
		Conns:   conns,
		Streams: streams,
		Client:  client.Config{MaxRetries: 8},
	})
	if err != nil {
		t.Fatalf("swarm.Run: %v", err)
	}
	checkSwarm(t, res)
	if res.Reconnects != 0 {
		t.Errorf("client reconnects = %d, want 0", res.Reconnects)
	}
}

// TestSwarmChaos swarms through a proxy whose backend leg is sabotaged by
// a fault injector. The proxy's failover machinery must absorb every
// fault: streams may see epoch bumps (codec resets surfaced as
// recoverable BatchErrors) but never a mismatch, never a disconnect, and
// every stream finishes — per-stream fault isolation at swarm scale.
func TestSwarmChaos(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	b1, b2 := startBackend(t), startBackend(t)
	inj, err := faults.New(faults.Config{Seed: 7, CorruptRate: 0.002, DropRate: 0.001})
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	px := startProxy(t, inj, b1.Addr(), b2.Addr())

	conns, streams := 4, 200
	if !testing.Short() {
		conns, streams = 16, 2_000
	}
	res, err := swarm.Run(swarm.Config{
		Addr:    px.Addr(),
		Conns:   conns,
		Streams: streams,
		Batches: 4,
		Client:  client.Config{MaxRetries: 16},
	})
	if err != nil {
		t.Fatalf("swarm.Run: %v", err)
	}
	checkSwarm(t, res)
	if got := inj.Counts().Total(); got == 0 {
		t.Error("injector fired zero faults; chaos run proved nothing")
	}
}

// TestSwarmOpenRetry pins the open retry: a stream whose open fails is
// opened again after a pause, as a chaotic wire can fail the first dial's
// handshake. The gateway's listener here drops its first connection before
// the Hello is answered and relays every later one to a real backend, so
// exactly one open fails, once, on every run.
func TestSwarmOpenRetry(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	backend := startBackend(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var relays sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		relays.Wait()
	})
	accepted := 0
	relays.Add(1)
	go func() {
		defer relays.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if accepted++; accepted == 1 {
				conn.Close()
				continue
			}
			up, err := net.Dial("tcp", backend.Addr())
			if err != nil {
				conn.Close()
				continue
			}
			for _, pair := range [][2]net.Conn{{up, conn}, {conn, up}} {
				relays.Add(1)
				go func(dst, src net.Conn) {
					defer relays.Done()
					io.Copy(dst, src)
					dst.Close()
					src.Close()
				}(pair[0], pair[1])
			}
		}
	}()

	res, err := swarm.Run(swarm.Config{
		Addr:    ln.Addr().String(),
		Conns:   1,
		Streams: 4,
		Client:  client.Config{MaxRetries: 1},
	})
	if err != nil {
		t.Fatalf("swarm.Run: %v", err)
	}
	checkSwarm(t, res)
	if res.Transactions != 4*4 {
		t.Errorf("confirmed %d transactions, want 16 (4 streams × 1 batch × 4)", res.Transactions)
	}
	ln.Close()
	relays.Wait()
	if accepted != 2 {
		t.Errorf("gateway accepted %d connections, want 2: the dropped one and its retry", accepted)
	}
}
