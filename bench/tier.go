package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/trace"
)

const (
	// warmupBatches is how many batches every session completes during set
	// up, filling the similarity cache and the bdenc repositories.
	warmupBatches = 200
	// energyBatches is how many of each session's first batches the energy
	// figure sums over. A fixed count keeps it identical across runs of one
	// seed; a session keeps going past the deadline until it has them.
	energyBatches = 1024
)

// transcoder is what a closed-loop caller needs from client.Client and
// client.Session.
type transcoder interface {
	Transcode([]trace.Transaction) (trace.BatchReply, error)
	Epoch() uint64
	RetryStats() client.RetryStats
	LastTraceID() uint64
}

// session is one closed-loop caller and what it checks replies against.
type session struct {
	scheme string
	conn   transcoder
	src    source
	// dec decodes a decode-stateful scheme's replies in lockstep with the
	// server's encoder; nil when batches carry their expected records.
	dec      core.Codec
	metaBits int
	epoch    uint64
	scratch  core.Encoded
	out      []byte

	batches  int // replies, warm-up included
	failed   int
	firstErr error
	basePJ   float64 // over the first energyBatches replies
	encPJ    float64

	measuring bool
	lat       latencyHist
	spans     *spanLog // set on the traced pass
}

// call sends one batch, waits for its reply and checks it.
func (s *session) call() {
	b := s.src.next()
	start := time.Now()
	reply, err := s.conn.Transcode(b.txns)
	end := time.Now()
	if s.measuring {
		s.lat.add(end.Sub(start))
	}
	if s.spans != nil {
		s.spans.addLoad(s.conn.LastTraceID(), start, end)
	}
	if err == nil {
		err = s.check(b, reply)
	}
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
	} else if s.batches < energyBatches {
		s.basePJ += reply.Stats.BaselinePJ
		s.encPJ += reply.Stats.EncodedPJ
	}
	s.batches++
}

func (s *session) check(b *batch, r trace.BatchReply) error {
	if len(r.Records) != len(b.txns) {
		return fmt.Errorf("%s: %d records for %d transactions", s.scheme, len(r.Records), len(b.txns))
	}
	if b.want != nil {
		recLen := len(b.want) / len(b.txns)
		for i, rec := range r.Records {
			w := b.want[i*recLen : (i+1)*recLen]
			if !bytes.Equal(rec.Data, w[:len(rec.Data)]) || !bytes.Equal(rec.Meta, w[len(rec.Data):]) {
				return fmt.Errorf("%s: record %d differs from the local codec's", s.scheme, i)
			}
		}
		return nil
	}
	if e := s.conn.Epoch(); e != s.epoch {
		s.dec.Reset() // the server's codec restarted, so the decoder follows
		s.epoch = e
	}
	for i, rec := range r.Records {
		s.scratch = core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: s.metaBits}
		if err := s.dec.Decode(s.out, &s.scratch); err != nil {
			return fmt.Errorf("%s: record %d: %w", s.scheme, i, err)
		}
		if !bytes.Equal(s.out, b.txns[i].Data) {
			return fmt.Errorf("%s: record %d decodes to different bytes", s.scheme, i)
		}
	}
	return nil
}

// drive runs every session as a closed loop in its own goroutine until the
// deadline has passed and the session has completed at least min batches.
func drive(sessions []*session, until time.Time, min int) {
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			for s.batches < min || time.Now().Before(until) {
				s.call()
			}
		}(s)
	}
	wg.Wait()
}

// inputs are a run's generated batches, made once from the seed and shared
// by every round so rounds differ only in timing.
type inputs struct {
	seed  int64
	pools map[string][]*batch // per scheme; nil for hot-set workloads
}

func makeInputs(w workloadSpec, seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	if w.hotset {
		return in, nil
	}
	in.pools = make(map[string][]*batch)
	for i, name := range w.schemes {
		if in.pools[name] != nil {
			continue
		}
		pool, err := makePool(w, name, seed+int64(i))
		if err != nil {
			return nil, err
		}
		in.pools[name] = pool
	}
	return in, nil
}

// tier is one workload's serving stack: bxtd, an optional bxtproxy, and the
// client sessions, all in this process over loopback TCP.
type tier struct {
	srv      *server.Server
	prx      *proxy.Proxy
	mux      *client.Mux
	clients  []*client.Client
	sessions []*session
}

// startTier stands up w's serving stack and warms every session. Client
// tracing is configured through ccfg.
func startTier(w workloadSpec, in *inputs, ccfg client.Config) (t *tier, err error) {
	t = &tier{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	scfg := config.DefaultServer()
	scfg.ListenAddr, scfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	scfg.LogLevel = "error"
	scfg.SimCache.Enabled = w.simcache
	if t.srv, err = server.New(scfg); err != nil {
		return t, err
	}
	if err = t.srv.Start(); err != nil {
		return t, err
	}
	addr := t.srv.Addr()
	if w.proxied {
		if t.prx, err = startProxy(addr); err != nil {
			return t, err
		}
		addr = t.prx.Addr()
	}
	if w.mux {
		if t.mux, err = client.NewMux(addr, ccfg); err != nil {
			return t, err
		}
	}
	for i, name := range w.schemes {
		var conn transcoder
		metaBits := 0
		if w.mux {
			ms, err := t.mux.Open(name, w.txnBytes)
			if err != nil {
				return t, fmt.Errorf("open stream %d: %w", i, err)
			}
			conn, metaBits = ms, ms.MetaBits()
		} else {
			c, err := client.DialConfig(addr, name, w.txnBytes, ccfg)
			if err != nil {
				return t, err
			}
			t.clients = append(t.clients, c)
			conn, metaBits = c, c.MetaBits()
		}
		s, err := newSession(w, in, i, conn, metaBits)
		if err != nil {
			return t, err
		}
		t.sessions = append(t.sessions, s)
	}
	drive(t.sessions, time.Time{}, warmupBatches)
	return t, nil
}

// newSession wraps conn, which runs w's i-th scheme, as a closed-loop caller.
func newSession(w workloadSpec, in *inputs, i int, conn transcoder, metaBits int) (*session, error) {
	name := w.schemes[i]
	s := &session{scheme: name, conn: conn, metaBits: metaBits, out: make([]byte, w.txnBytes)}
	var err error
	if w.hotset {
		s.src, err = newHotSource(w, name, in.seed+int64(i))
	} else {
		s.src = &poolSource{pool: in.pools[name], i: i}
	}
	if err == nil && scheme.DecodeStateful(name) {
		s.dec, err = scheme.New(name)
	}
	return s, err
}

func startProxy(backend string) (*proxy.Proxy, error) {
	pcfg := config.DefaultProxy()
	pcfg.ListenAddr, pcfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	pcfg.Backends = []string{backend}
	pcfg.LogLevel = "error"
	p, err := proxy.New(pcfg)
	if err != nil {
		return nil, err
	}
	if err := p.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

func (t *tier) close() {
	if t.mux != nil {
		t.mux.Close()
	}
	for _, c := range t.clients {
		c.Close()
	}
	if t.prx != nil {
		t.prx.Close()
	}
	if t.srv != nil {
		t.srv.Close()
	}
}

// failures returns the tier's failed batch count and its first error.
func (t *tier) failures() (int, error) {
	n, errs := 0, []error(nil)
	for _, s := range t.sessions {
		n += s.failed
		if s.firstErr != nil {
			errs = append(errs, s.firstErr)
		}
	}
	return n, errors.Join(errs...)
}

// window is what one measured stretch of closed-loop load produced.
type window struct {
	elapsed  time.Duration
	batches  int
	cpu      time.Duration // process user+sys
	heapPeak uint64        // bytes of heap objects, sampled
	allocs   uint64        // heap objects allocated
	gcs      uint64
	lat      latencyHist
	// streamP99 is each session's p99 in nanoseconds.
	streamP99 []float64
}

// measure drives every session for d and returns what the window produced.
func measure(t *tier, d time.Duration) (window, error) {
	var w window
	before := make([]int, len(t.sessions))
	for i, s := range t.sessions {
		before[i] = s.batches
		s.measuring = true
		s.lat = latencyHist{}
	}
	stopHeap, heapPeak := sampleHeap()
	rt0 := readRuntime()
	cpu0, err := cpuTime()
	if err != nil {
		stopHeap()
		return w, err
	}
	start := time.Now()
	drive(t.sessions, start.Add(d), energyBatches)
	w.elapsed = time.Since(start)
	cpu1, err := cpuTime()
	rt1 := readRuntime()
	stopHeap()
	if err != nil {
		return w, err
	}
	w.cpu = cpu1 - cpu0
	w.heapPeak = *heapPeak
	w.allocs = rt1.allocs - rt0.allocs
	w.gcs = rt1.gcs - rt0.gcs
	for i, s := range t.sessions {
		s.measuring = false
		w.batches += s.batches - before[i]
		w.lat.merge(&s.lat)
		w.streamP99 = append(w.streamP99, s.lat.quantile(0.99))
	}
	return w, nil
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

type runtimeCounts struct{ allocs, gcs uint64 }

func readRuntime() runtimeCounts {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounts{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

// sampleHeap samples the bytes held by heap objects every 10 ms until the
// returned stop function is called, and keeps the highest reading.
func sampleHeap() (stop func(), peak *uint64) {
	peak = new(uint64)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			*peak = max(*peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); <-exited }, peak
}
