package serve_test

import (
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname, for the client's copy hook

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/serve"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/trace"
)

// ioCounts tallies the Read and Write calls made on one connection, the
// bytes they moved, the frames its writes carried, the writes that ended
// partway through a frame, and the frame and payload bytes its owner
// copied after reading or before writing them.
type ioCounts struct {
	reads, writes, frames, splits atomic.Int64
	in, out, copied               atomic.Int64

	// The frame parser's state, touched only by Write, which every tier
	// serializes per connection: the length-prefix bytes gathered so far,
	// and the bytes of the current frame still to come.
	hdr  [4]byte
	hn   int
	left int
}

// countFrames advances the frame parser over p, one written chunk, and
// counts a split when p ends inside a frame.
func (n *ioCounts) countFrames(p []byte) {
	defer func() {
		if n.hn != 0 || n.left != 0 {
			n.splits.Add(1)
		}
	}()
	for len(p) > 0 {
		if n.left > 0 {
			k := min(n.left, len(p))
			n.left -= k
			p = p[k:]
			continue
		}
		k := copy(n.hdr[n.hn:], p)
		n.hn += k
		p = p[k:]
		if n.hn == len(n.hdr) {
			n.left = int(binary.LittleEndian.Uint32(n.hdr[:]))
			n.hn = 0
			n.frames.Add(1)
		}
	}
}

// countedConn counts the Read and Write calls its owner makes.
type countedConn struct {
	net.Conn
	n *ioCounts
}

func (c countedConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	n, err := c.Conn.Read(p)
	c.n.in.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	c.n.out.Add(int64(len(p)))
	c.n.countFrames(p)
	return c.Conn.Write(p)
}

// The copy ledger's sites, one per package that copies a frame it already
// holds: the serve.Writer's copy of a frame into its pending block, and
// the client mux's copy of a sibling's answer into that session's inbox.
// The client's hook is unexported, so the package gains no API for a test;
// the ledger reaches it by linkname.
//
//go:linkname clientCopyHook github.com/hpca18/bxt/internal/client.testHookCopy
var clientCopyHook func(conn net.Conn, n int)

// countCopy charges n copied bytes to conn's leg.
func countCopy(conn net.Conn, n int) {
	if c, ok := conn.(countedConn); ok {
		c.n.copied.Add(int64(n))
	}
}

// BXTP legs, named by the side whose calls are counted.
const (
	legClient       = "client"
	legProxyClient  = "proxy client leg"
	legProxyBackend = "proxy backend leg"
	legBxtd         = "bxtd"
)

// connLedger records every counted connection with the leg it belongs to.
type connLedger struct {
	mu    sync.Mutex
	conns []ledgerEntry
}

type ledgerEntry struct {
	local, remote string
	leg           string // set for client connections, resolved later for the rest
	n             *ioCounts
}

func (l *connLedger) wrap(c net.Conn, leg string) net.Conn {
	n := new(ioCounts)
	l.mu.Lock()
	l.conns = append(l.conns, ledgerEntry{local: c.LocalAddr().String(), remote: c.RemoteAddr().String(), leg: leg, n: n})
	l.mu.Unlock()
	return countedConn{Conn: c, n: n}
}

// legIO is one leg's summed counts.
type legIO struct{ reads, writes, frames, splits, in, out, copied int64 }

// totals sums the counts per leg. A host-side connection is bxtd's
// when it was accepted on bxtdAddr, the proxy's client leg when accepted
// on proxyAddr, and the proxy's backend leg when dialed to bxtdAddr.
func (l *connLedger) totals(bxtdAddr, proxyAddr string) map[string]legIO {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]legIO)
	for _, e := range l.conns {
		leg := e.leg
		switch {
		case leg != "":
		case e.local == bxtdAddr:
			leg = legBxtd
		case e.local == proxyAddr:
			leg = legProxyClient
		case e.remote == bxtdAddr:
			leg = legProxyBackend
		default:
			continue
		}
		t := out[leg]
		t.reads += e.n.reads.Load()
		t.writes += e.n.writes.Load()
		t.frames += e.n.frames.Load()
		t.splits += e.n.splits.Load()
		t.in += e.n.in.Load()
		t.out += e.n.out.Load()
		t.copied += e.n.copied.Load()
		out[leg] = t
	}
	return out
}

// readsPerBatchCeiling holds each direct and proxied leg's reads per batch
// at or below what the pooled 64 KiB bufio framing measured on loopback:
// 1.000 on every leg, 1.001 at worst over fifteen runs. The margin covers
// the kernel splitting a frame across two reads now and then.
const readsPerBatchCeiling = 1.01

// burstWritesPerBatchCeiling holds the writes per batch of bxtd and the
// proxy's client leg on the concurrent mux16 topologies, where answers
// leave in one Write per burst of requests. Both measured 0.17 on loopback
// (1.000 when every answer took its own Write), so the ceiling leaves room
// for a slower or busier host, whose bursts run shorter.
const burstWritesPerBatchCeiling = 0.5

// TestFrameIOPerLeg is the I/O count gate, with every BXTP leg counted —
// client, the proxy's client and backend legs, and bxtd — for one session
// straight to bxtd or through bxtproxy and for the 16-stream mux straight
// or proxied, its streams driven one at a time or by 16 concurrent
// callers. On every leg no Write ends partway through a frame, and there
// are at most as many writes as frames. Sequential traffic has no burst to
// coalesce, so each of its frames still goes out in exactly one Write. On
// the concurrent mux topologies the serving legs (bxtd, or the proxy's
// client leg) answer a burst in one Write made before the read that waits
// for the next request, so they make at most as many writes as reads, plus
// one for a read not yet begun when the counts are taken, and stay under
// burstWritesPerBatchCeiling. On the direct and proxied topologies every
// leg also reads at most about one time per frame it receives; the mux
// topologies log their reads per batch.
//
// The copy ledger counts the bytes each leg copies between its socket
// buffers and its codec. bxtd copies none: a batch's payloads reach its
// codec in place in the read buffer, and the answer is encoded in place
// in the frame that is written. With one request in flight per
// connection — sequential traffic, and the proxy's backend leg, which
// relays a burst one exchange at a time — no other leg copies anything.
// On the concurrent topologies the client copies a sibling's answer into
// its inbox, and the proxy's client leg a relayed answer into its burst
// block, each at most once.
func TestFrameIOPerLeg(t *testing.T) {
	if testing.Short() {
		t.Skip("drives thousands of loopback batches")
	}
	var ledger connLedger
	serve.SetConnHook(func(c net.Conn) net.Conn { return ledger.wrap(c, "") })
	serve.SetCopyHook(countCopy)
	clientCopyHook = countCopy
	t.Cleanup(func() { // runs after both tiers close
		serve.SetConnHook(nil)
		serve.SetCopyHook(nil)
		clientCopyHook = nil
	})

	scfg := config.DefaultServer()
	scfg.ListenAddr, scfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	scfg.LogLevel = "error"
	srv, err := server.New(scfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	pcfg := config.DefaultProxy()
	pcfg.ListenAddr, pcfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	pcfg.LogLevel = "error"
	pcfg.Backends = []string{srv.Addr()}
	pcfg.HealthInterval = time.Hour // one probe at start, none in the window
	px, err := proxy.New(pcfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	if err := px.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(func() { px.Close() })

	cfg := client.Config{Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return ledger.wrap(conn, legClient), nil
	}}

	const batches = 1000
	for _, tc := range []struct {
		name       string
		addr       string
		mux        bool
		concurrent bool
		batch      int
		proxied    bool
	}{
		{"direct", srv.Addr(), false, false, 256, false},
		{"proxied", px.Addr(), false, false, 256, true},
		{"mux16", srv.Addr(), true, false, 64, false},
		{"mux16-proxied", px.Addr(), true, false, 64, true},
		{"mux16-concurrent", srv.Addr(), true, true, 64, false},
		{"mux16-concurrent-proxied", px.Addr(), true, true, 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			transcode := ioTranscoder(t, tc.addr, cfg, rng, tc.mux, tc.concurrent, tc.batch)
			if err := transcode(200); err != nil {
				t.Fatalf("warm-up Transcode: %v", err)
			}
			before := ledger.totals(srv.Addr(), px.Addr())
			if err := transcode(batches); err != nil {
				t.Fatalf("Transcode: %v", err)
			}
			after := ledger.totals(srv.Addr(), px.Addr())
			legs := []string{legClient, legBxtd}
			if tc.proxied {
				legs = []string{legClient, legProxyClient, legProxyBackend, legBxtd}
			}
			serving := legBxtd
			if tc.proxied {
				serving = legProxyClient
			}
			for _, leg := range legs {
				reads := after[leg].reads - before[leg].reads
				writes := after[leg].writes - before[leg].writes
				frames := after[leg].frames - before[leg].frames
				perBatch := float64(reads) / batches
				writesPerBatch := float64(writes) / batches
				copied := after[leg].copied - before[leg].copied
				t.Logf("%s: %.3f reads, %.3f writes, %.3f frames sent, %.1f bytes copied per batch",
					leg, perBatch, writesPerBatch, float64(frames)/batches, float64(copied)/batches)
				switch {
				case !tc.concurrent || leg == legProxyBackend || leg == legBxtd:
					// bxtd encodes each batch where it landed and builds
					// its answer in place. With one request in flight per
					// connection, each answer is read by the session that
					// waits for it and relayed straight from where it was
					// read.
					if copied != 0 {
						t.Errorf("%s: %d bytes copied, want 0", leg, copied)
					}
				case leg == legClient:
					// A sibling's answer is copied into its inbox at most
					// once.
					if in := after[leg].in - before[leg].in; copied > in {
						t.Errorf("%s: %d bytes copied of %d read, want each at most once", leg, copied, in)
					}
				default:
					// A relayed answer is copied into the burst's block at
					// most once.
					if out := after[leg].out - before[leg].out; copied > out {
						t.Errorf("%s: %d bytes copied of %d written, want each at most once", leg, copied, out)
					}
				}
				if splits := after[leg].splits - before[leg].splits; splits != 0 {
					t.Errorf("%s: %d writes ended partway through a frame", leg, splits)
				}
				// The proxy's shadow snapshot pulls add frames on the
				// backend leg.
				if writes > frames || frames < batches {
					t.Errorf("%s: %d writes for %d frames over %d batches, want at most one per frame", leg, writes, frames, batches)
				}
				if !tc.concurrent && writes != frames {
					t.Errorf("%s: %d writes for %d frames of sequential traffic, want exactly one per frame", leg, writes, frames)
				}
				if tc.concurrent && leg == serving {
					if writes > reads+1 {
						t.Errorf("%s: %d writes for %d reads, want at most one per read", leg, writes, reads)
					}
					if writesPerBatch > burstWritesPerBatchCeiling {
						t.Errorf("%s: %.3f writes per batch, want at most %.2f", leg, writesPerBatch, burstWritesPerBatchCeiling)
					}
				}
				if !tc.mux && perBatch > readsPerBatchCeiling {
					t.Errorf("%s: %.3f reads per batch, want at most %.2f", leg, perBatch, readsPerBatchCeiling)
				}
			}
		})
	}
}

// ioTranscoder dials one plain client, or the mux16 stream mix (twelve
// basexor and four bdenc streams) on one client.Mux connection, and
// returns a function that sends n batches of batch 32-byte transactions:
// on the next mux stream in turn, or, when concurrent, from 16 callers at
// once, one per stream.
func ioTranscoder(t *testing.T, addr string, cfg client.Config, rng *rand.Rand, mux, concurrent bool, batch int) func(n int) error {
	t.Helper()
	txns := func() []trace.Transaction {
		out := make([]trace.Transaction, batch)
		for i := range out {
			data := make([]byte, 32)
			rng.Read(data)
			out[i] = trace.Transaction{Addr: uint64(i) << 5, Kind: trace.Kind(i % 2), Data: data}
		}
		return out
	}
	var callers []func() error
	if !mux {
		c, err := client.DialConfig(addr, "universal", 32, cfg)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		b := txns()
		callers = append(callers, func() error {
			_, err := c.Transcode(b)
			return err
		})
	} else {
		m, err := client.NewMux(addr, cfg)
		if err != nil {
			t.Fatalf("NewMux: %v", err)
		}
		t.Cleanup(func() { m.Close() })
		for i := 0; i < 16; i++ {
			name := "basexor"
			if i%4 == 3 {
				name = "bdenc"
			}
			s, err := m.Open(name, 32)
			if err != nil {
				t.Fatalf("Open(%s): %v", name, err)
			}
			b := txns()
			callers = append(callers, func() error {
				_, err := s.Transcode(b)
				return err
			})
		}
	}
	next := 0
	return func(n int) error {
		if !concurrent {
			for ; n > 0; n-- {
				if err := callers[next%len(callers)](); err != nil {
					return err
				}
				next++
			}
			return nil
		}
		errs := make(chan error, len(callers))
		for i, call := range callers {
			go func() {
				var err error
				for k := i; k < n && err == nil; k += len(callers) {
					err = call()
				}
				errs <- err
			}()
		}
		var first error
		for range callers {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
}
