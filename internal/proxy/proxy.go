// Package proxy implements bxtproxy, the sharded serving tier in front of
// a fleet of bxtd gateways: a BXTP-speaking front door that accepts client
// sessions and fans their batches across N backends.
//
// Multiplexing: a client connection carries many logical streams (see
// internal/trace/mux.go), and the proxy demuxes them — each stream routes,
// pins, faults, and fails over independently across one upstream
// connection per backend, so one client connection can fan out across the
// whole fleet.
//
// Routing: streams running decode-stateless schemes (basexor, universal,
// dbi, silent — see scheme.DecodeStateful) spread batch-by-batch by
// weighted least-pending: in-flight counts weighted by the backend's live
// per-scheme exchange-latency EWMA, near-ties broken by raw pending.
// Streams whose codec decode depends on encode order (bdenc, fve) are
// pinned to one backend by rendezvous hashing with bounded load — while
// the rendezvous winner carries more than BoundedLoadFactor x the
// fleet-mean in-flight batches (+1), new pins fall to the next candidate
// in score order — because splitting their stream across codecs would
// desynchronize the client's decoder.
//
// The fleet is dynamic: AddBackend/RemoveBackend (POST /backends on the
// metrics listener) and SetBackends (the SIGHUP backends-file reconcile
// path) grow and shrink it without a restart; surviving backends keep
// their counters, pins, and health state.
//
// Health: every backend is probed with a real BXTP Hello handshake at a
// fixed interval; EjectThreshold consecutive failures (probe or live
// traffic) eject it from routing until a probe succeeds again. A pinned
// session whose backend dies re-pins to a survivor and tells the client to
// reset its codec via a BatchError(reset) reply — the client's existing
// Epoch machinery re-drives the batch on a fresh decoder.
//
// Failover: a dead backend never disconnects a client. In-flight batches
// convert to recoverable Busy (stateless) or BatchError(reset) (pinned)
// replies that client.MaxRetries re-drives.
//
// The proxy relays Batch and reply frame bodies verbatim — client and
// backends speak the one BXTP revision, so batch envelopes (ids, CRCs)
// pass through untouched.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/power"
	"github.com/hpca18/bxt/internal/trace"
)

// probeTxnSize is the transaction size health probes handshake with; any
// legal value works because probes never stream a batch.
const probeTxnSize = 64

// Proxy is a bxtproxy instance.
type Proxy struct {
	cfg config.Proxy
	met *metrics
	log *slog.Logger
	// backends is the live fleet, replaced wholesale (copy-on-write under
	// mu) by AddBackend/RemoveBackend so the routing hot path reads a
	// consistent snapshot without locking.
	backends atomic.Pointer[[]*backend]
	// sessionIDs hands out per-connection IDs correlating logs and the
	// rendezvous pin placement for one session.
	sessionIDs atomic.Uint64
	// inj, when non-nil, injects transport faults into the proxy↔backend
	// leg only: the client-facing socket stays clean, so chaos drills
	// exercise failover conversion rather than client parsing.
	inj *faults.Injector

	mu         sync.Mutex
	ln         net.Listener
	httpLn     net.Listener
	httpSrv    *http.Server
	sessions   map[*session]struct{}
	started    bool
	draining   bool
	stopProbes chan struct{}

	wg sync.WaitGroup // accept loop + sessions + probe loops
}

// New validates cfg and returns an unstarted proxy.
func New(cfg config.Proxy) (*Proxy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logger, err := obs.NewLogger(os.Stderr, cfg.LogLevel, cfg.LogFormat)
	if err != nil {
		return nil, err // unreachable after Validate, but keep the contract
	}
	p := &Proxy{
		cfg: cfg,
		// The proxy runs the same power model as the gateways it fronts,
		// so its per-backend energy aggregation (rebuilt from relayed
		// BatchStats wire counters) is commensurate with theirs.
		met:        newMetrics(cfg.TraceBuffer, power.NewModel().Estimator()),
		log:        logger,
		sessions:   make(map[*session]struct{}),
		stopProbes: make(chan struct{}),
	}
	var backends []*backend
	for _, addr := range cfg.Backends {
		b := newBackend(addr)
		b.energy = p.met.energy.Counter(addr)
		backends = append(backends, b)
	}
	p.backends.Store(&backends)
	return p, nil
}

// backendList returns the current fleet snapshot. The slice is immutable:
// mutations build a fresh slice and swap the pointer.
func (p *Proxy) backendList() []*backend {
	return *p.backends.Load()
}

// AddBackend grows the fleet at runtime: the new backend joins routing
// immediately (its first probe decides health) with no proxy restart and
// no disturbance to live sessions. It fails on a duplicate address.
func (p *Proxy) AddBackend(addr string) error {
	if addr == "" {
		return errors.New("proxy: empty backend address")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.backendList()
	for _, b := range old {
		if b.addr == addr {
			return fmt.Errorf("proxy: backend %s already configured", addr)
		}
	}
	b := newBackend(addr)
	b.energy = p.met.energy.Counter(addr)
	next := make([]*backend, len(old), len(old)+1)
	copy(next, old)
	next = append(next, b)
	p.backends.Store(&next)
	if p.started && !p.draining {
		p.wg.Add(1)
		go p.probeLoop(b)
	}
	p.log.Info("backend added", "backend", addr, "fleet", len(next))
	return nil
}

// RemoveBackend shrinks the fleet at runtime: the backend leaves routing
// immediately, pinned streams live-migrate their codec state off it on
// their next batch (it is marked draining first, so it stays reachable
// for exactly those state-snapshot pulls), and its probe loop winds down.
func (p *Proxy) RemoveBackend(addr string) error {
	p.mu.Lock()
	old := p.backendList()
	var gone *backend
	next := make([]*backend, 0, len(old))
	for _, b := range old {
		if b.addr == addr {
			gone = b
			continue
		}
		next = append(next, b)
	}
	if gone == nil {
		p.mu.Unlock()
		return fmt.Errorf("proxy: unknown backend %s", addr)
	}
	gone.draining.Store(true)
	gone.remove()
	p.backends.Store(&next)
	p.mu.Unlock()
	p.log.Info("backend removed", "backend", addr, "fleet", len(next))
	return nil
}

// SetBackends reconciles the fleet against addrs: missing backends are
// added, surplus ones removed, survivors keep their counters and health
// state. This is the SIGHUP config-reload entry point.
func (p *Proxy) SetBackends(addrs []string) error {
	if len(addrs) == 0 {
		return errors.New("proxy: refusing to remove every backend")
	}
	want := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" {
			return errors.New("proxy: empty backend address")
		}
		want[a] = true
	}
	have := make(map[string]bool)
	for _, b := range p.backendList() {
		have[b.addr] = true
	}
	for _, a := range addrs {
		if !have[a] {
			if err := p.AddBackend(a); err != nil {
				return err
			}
		}
	}
	for addr := range have {
		if !want[addr] {
			if err := p.RemoveBackend(addr); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetFaults arms the chaos injector on the backend leg: every upstream
// connection's byte stream runs through it. Call before Start.
func (p *Proxy) SetFaults(in *faults.Injector) { p.inj = in }

// Logger returns the proxy's structured logger.
func (p *Proxy) Logger() *slog.Logger { return p.log }

// SetLogger replaces the logger; call before Start.
func (p *Proxy) SetLogger(l *slog.Logger) {
	if l != nil {
		p.log = l
	}
}

// Tracer returns the per-(scheme, stage) latency tracer backing the
// bxtproxy_stage_seconds exposition.
func (p *Proxy) Tracer() obs.Tracer { return p.met.stages }

func (p *Proxy) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if p.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		addr := r.URL.Query().Get("backend")
		if addr == "" {
			http.Error(w, "backend query parameter required", http.StatusBadRequest)
			return
		}
		for _, b := range p.backendList() {
			if b.addr != addr {
				continue
			}
			if !b.draining.Swap(true) {
				p.log.Info("backend draining", "backend", addr)
			}
			fmt.Fprintln(w, "draining")
			return
		}
		http.Error(w, "unknown backend "+addr, http.StatusNotFound)
	})
	mux.HandleFunc("/backends", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			for _, b := range p.backendList() {
				state := "up"
				switch {
				case b.draining.Load():
					state = "draining"
				case b.ejected.Load():
					state = "ejected"
				}
				fmt.Fprintf(w, "%s %s\n", b.addr, state)
			}
		case http.MethodPost:
			q := r.URL.Query()
			adds, removes := q["add"], q["remove"]
			if len(adds) == 0 && len(removes) == 0 {
				http.Error(w, "add or remove query parameter required", http.StatusBadRequest)
				return
			}
			for _, addr := range adds {
				if err := p.AddBackend(addr); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
			}
			for _, addr := range removes {
				if err := p.RemoveBackend(addr); err != nil {
					http.Error(w, err.Error(), http.StatusNotFound)
					return
				}
			}
			fmt.Fprintln(w, "ok")
		default:
			http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		p.met.writeExposition(w, p.backendList(), p.isDraining())
	})
	if p.cfg.Debug {
		mux.Handle("/debug/trace", obs.TraceHandler(p.met.traces, p.met.stages))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Start opens both listeners, launches one health-probe loop per backend,
// and begins serving. It returns immediately; use Shutdown/Close to stop.
func (p *Proxy) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return errors.New("proxy: already started")
	}
	ln, err := net.Listen("tcp", p.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("proxy: listen %s: %w", p.cfg.ListenAddr, err)
	}
	httpLn, err := net.Listen("tcp", p.cfg.MetricsAddr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("proxy: listen %s: %w", p.cfg.MetricsAddr, err)
	}
	p.ln, p.httpLn = ln, httpLn
	p.httpSrv = &http.Server{Handler: p.buildMux()}
	p.started = true
	p.log.Info("listening",
		"addr", ln.Addr().String(),
		"metrics_addr", httpLn.Addr().String(),
		"backends", p.cfg.Backends,
		"max_conns", p.cfg.MaxConns)

	go p.httpSrv.Serve(httpLn) //nolint:errcheck // returns on Close
	p.wg.Add(1)
	go p.acceptLoop(ln)
	for _, b := range p.backendList() {
		p.wg.Add(1)
		go p.probeLoop(b)
	}
	return nil
}

// Addr returns the client-facing listener's bound address.
func (p *Proxy) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// MetricsAddr returns the metrics listener's bound address.
func (p *Proxy) MetricsAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.httpLn == nil {
		return ""
	}
	return p.httpLn.Addr().String()
}

func (p *Proxy) isDraining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown/Close
		}
		p.met.connsTotal.Add(1)
		if n := p.met.connsActive.Load(); int(n) >= p.cfg.MaxConns {
			p.met.connsRejected.Add(1)
			p.refuse(conn, "proxy at connection capacity")
			continue
		}
		ss := p.newSession(conn)
		if ss == nil {
			p.refuse(conn, "proxy is draining")
			continue
		}
		p.wg.Add(1)
		p.met.connsActive.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.met.connsActive.Add(-1)
			defer p.dropSession(ss)
			ss.run()
		}()
	}
}

func (p *Proxy) refuse(conn net.Conn, msg string) {
	p.log.Warn("connection refused", "remote", conn.RemoteAddr().String(), "reason", msg)
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	_ = trace.WriteFrame(conn, trace.FrameError, []byte(msg))
	conn.Close()
}

func (p *Proxy) newSession(conn net.Conn) *session {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return nil
	}
	ss := &session{
		p:    p,
		id:   p.sessionIDs.Add(1),
		conn: conn,
		ups:  make(map[*backend]*upstream),
	}
	p.sessions[ss] = struct{}{}
	return ss
}

func (p *Proxy) dropSession(ss *session) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.sessions, ss)
}

// weightTieBand is how close (multiplicatively) two weighted routing
// scores must be to count as a tie, broken toward the fewest lifetime
// batches so light serial traffic keeps spreading across a homogeneous
// fleet instead of dogpiling whichever backend was momentarily fastest.
const weightTieBand = 1.25

// pickStateless returns the backend the weighted least-pending router
// picks for one stateless batch of schemeName, or nil when every
// candidate is ejected or excluded.
//
// Each candidate scores (pending+1) × its per-scheme exchange-latency
// EWMA, so a backend that answers this scheme twice as slowly needs half
// the queue to be equally attractive — the live stage histograms feed
// back into placement. A backend with no samples for the scheme inherits
// the fleet's fastest observed latency (optimistic, so fresh backends
// attract traffic and get measured); when no backend has samples the
// score degenerates to pure least-pending. Scores within weightTieBand of
// the minimum are a tie, broken toward the fewest lifetime batches.
func (p *Proxy) pickStateless(schemeName string, excluded map[*backend]bool) *backend {
	backends := p.backendList()
	eligible := func(b *backend) bool {
		return !b.ejected.Load() && !b.draining.Load() && !excluded[b]
	}
	// Fastest observed latency across the fleet stands in for unmeasured
	// candidates; 1 (a virtual nanosecond) keeps the score proportional
	// to pending when nothing is measured yet.
	fastest := 1.0
	for _, b := range backends {
		if !eligible(b) {
			continue
		}
		if l := b.exchangeEWMA(schemeName); l > 0 && (fastest == 1.0 || l < fastest) {
			fastest = l
		}
	}
	score := func(b *backend) float64 {
		l := b.exchangeEWMA(schemeName)
		if l == 0 {
			l = fastest
		}
		return float64(b.pending.Load()+1) * l
	}
	minScore := 0.0
	for _, b := range backends {
		if !eligible(b) {
			continue
		}
		if s := score(b); minScore == 0 || s < minScore {
			minScore = s
		}
	}
	var best *backend
	var bestBatches uint64
	for _, b := range backends {
		if !eligible(b) || score(b) > minScore*weightTieBand {
			continue
		}
		if t := b.batches.Load(); best == nil || t < bestBatches {
			best, bestBatches = b, t
		}
	}
	return best
}

// pickPinned rendezvous-hashes key over the healthy backends: every
// stream with the same key lands on the same backend, and when that
// backend dies only its streams move. The hash is bounded-load: while the
// rendezvous winner carries more than BoundedLoadFactor × the fleet's
// mean in-flight batches (+1), the pin falls to the next candidate in
// score order, so a hot backend sheds new placements without perturbing
// where anything else hashes.
func (p *Proxy) pickPinned(key uint64) *backend {
	backends := p.backendList()
	var best, bestCool *backend
	var bestScore, bestCoolScore uint64
	healthy, totalPending := 0, int64(0)
	for _, b := range backends {
		if b.ejected.Load() || b.draining.Load() {
			continue
		}
		healthy++
		totalPending += b.pending.Load()
	}
	limit := int64(-1)
	if f := p.cfg.BoundedLoadFactor; f > 0 && healthy > 1 {
		limit = int64(f*float64(totalPending)/float64(healthy)) + 1
	}
	for _, b := range backends {
		if b.ejected.Load() || b.draining.Load() {
			continue
		}
		s := rendezvousScore(key, b.addr)
		if best == nil || s > bestScore {
			best, bestScore = b, s
		}
		if limit >= 0 && b.pending.Load() > limit {
			continue
		}
		if bestCool == nil || s > bestCoolScore {
			bestCool, bestCoolScore = b, s
		}
	}
	if bestCool != nil {
		return bestCool
	}
	// Every candidate is over the load bound; the pure rendezvous winner
	// beats refusing to place at all.
	return best
}

func rendezvousScore(key uint64, addr string) uint64 {
	h := fnv.New64a()
	var kb [8]byte
	for i := range kb {
		kb[i] = byte(key >> (8 * i))
	}
	h.Write(kb[:])
	h.Write([]byte(addr))
	return h.Sum64()
}

// dialUpstream opens, wraps (chaos), and handshakes one upstream
// connection with b for h. The caller owns the returned upstream.
func (p *Proxy) dialUpstream(b *backend, h trace.Hello) (*upstream, error) {
	d := net.Dialer{Timeout: p.cfg.DialTimeout}
	conn, err := d.Dial("tcp", b.addr)
	if err != nil {
		return nil, err
	}
	if p.inj != nil {
		conn = p.inj.WrapConn(conn)
	}
	u := &upstream{
		b:    b,
		conn: conn,
		br:   trace.NewConnReader(conn),
		bw:   trace.NewConnWriter(conn),
	}
	if err := u.handshake(h, p.cfg.DialTimeout); err != nil {
		u.close()
		return nil, err
	}
	return u, nil
}

// noteBackendFailure counts one failure against b and logs the ejection
// transition when it crosses the threshold.
func (p *Proxy) noteBackendFailure(b *backend, leg string, err error) {
	if b.fail(p.cfg.EjectThreshold) {
		p.log.Warn("backend ejected", "backend", b.addr, "leg", leg, "err", err)
	}
}

// noteBackendOK counts one success for b and logs the restore transition.
func (p *Proxy) noteBackendOK(b *backend) {
	if b.ok() {
		p.log.Info("backend restored", "backend", b.addr)
	}
}

// probeLoop health-checks b with a BXTP Hello handshake every
// HealthInterval until shutdown or until the backend is removed from the
// fleet.
func (p *Proxy) probeLoop(b *backend) {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	for {
		p.probe(b)
		select {
		case <-p.stopProbes:
			return
		case <-b.gone:
			return
		case <-t.C:
		}
	}
}

// probe runs one Hello handshake against b; success restores an ejected
// backend, failure counts toward ejection.
func (p *Proxy) probe(b *backend) {
	b.probes.Add(1)
	u, err := p.dialUpstream(b, trace.Hello{Scheme: p.cfg.ProbeScheme, TxnSize: probeTxnSize})
	if err != nil {
		p.noteBackendFailure(b, "probe", err)
		return
	}
	u.close()
	p.noteBackendOK(b)
}

// Shutdown drains the proxy: it stops accepting and probing, flips
// /healthz to draining, interrupts idle session reads, lets in-flight
// batches complete, and waits for every session to close. The metrics
// endpoint stays up (reporting the draining state) until Close.
func (p *Proxy) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return nil
	}
	already := p.draining
	p.draining = true
	ln := p.ln
	sessions := make([]*session, 0, len(p.sessions))
	for ss := range p.sessions {
		sessions = append(sessions, ss)
	}
	p.mu.Unlock()

	if !already {
		p.log.Info("draining", "open_sessions", len(sessions))
		close(p.stopProbes)
		if ln != nil {
			ln.Close()
		}
	}
	// Fire every session's pending read immediately: readers blocked on an
	// idle socket wake with a timeout, see the draining flag, and wind
	// down after flushing whatever is in flight.
	for _, ss := range sessions {
		ss.conn.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	// A session that was mid-batch when the deadlines fired re-arms its
	// read deadline on the next loop; keep re-firing until the drain
	// completes so no reader sits out its full idle timeout.
	go func() {
		for {
			select {
			case <-done:
				return
			case <-time.After(20 * time.Millisecond):
				p.mu.Lock()
				for ss := range p.sessions {
					ss.conn.SetReadDeadline(time.Now())
				}
				p.mu.Unlock()
			}
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		for ss := range p.sessions {
			ss.conn.Close()
		}
		p.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close releases everything: an immediate drain bounded by DrainTimeout,
// then the metrics endpoint.
func (p *Proxy) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.DrainTimeout)
	defer cancel()
	err := p.Shutdown(ctx)
	p.mu.Lock()
	httpSrv, httpLn := p.httpSrv, p.httpLn
	p.httpSrv, p.httpLn = nil, nil
	p.mu.Unlock()
	if httpSrv != nil {
		httpSrv.Close()
	} else if httpLn != nil {
		httpLn.Close()
	}
	return err
}
