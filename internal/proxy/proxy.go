// Package proxy implements bxtproxy, the sharded serving tier in front of
// a fleet of bxtd gateways: a BXTP-speaking front door that accepts client
// sessions and fans their batches across N backends.
//
// Multiplexing: a client connection carries many logical streams (see
// internal/trace/mux.go), and the proxy demuxes them — each stream routes,
// pins, faults, and fails over independently across one backend
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
// traffic) eject it from routing until a probe succeeds again. A backend
// Error frame only ends that backend connection and is not a failure.
//
// Failover: a dead backend never disconnects a client. In-flight batches
// convert to recoverable Busy (stateless) or BatchError(reset) (pinned)
// replies that client.MaxRetries re-drives; a pinned stream whose pin is
// lost first moves its codec state to the new pin, resetting the client
// only when no current state can be moved.
//
// The backend leg is the client's own transport: each backend connection
// is a client.Mux dialed with the client's Hello, each relayed stream a
// client.Session on it under the client's stream id, so every answer
// reaches the stream it names. Frames relay verbatim, and backend answers
// are read through the client's own checks (trace.CheckHello,
// CheckStreamOpen, CheckBatch).
package proxy

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/power"
	"github.com/hpca18/bxt/internal/serve"
)

// probeTxnSize is the transaction size health probes handshake with; any
// legal value works because probes never stream a batch.
const probeTxnSize = 64

// Proxy is a bxtproxy instance.
type Proxy struct {
	cfg  config.Proxy
	host *serve.Host[*session]
	met  *metrics
	log  *slog.Logger
	// backends is the live fleet, replaced wholesale (copy-on-write under
	// mu) by AddBackend/RemoveBackend so the routing hot path reads a
	// consistent snapshot without locking.
	backends atomic.Pointer[[]*backend]
	// inj, when non-nil, injects transport faults into the proxy↔backend
	// leg only: the client-facing socket stays clean, so chaos drills
	// exercise failover conversion rather than client parsing.
	inj *faults.Injector
	// leg is what every backend connection runs with: the backend leg is
	// the client's own transport (internal/client), dialed through
	// dialBackend within DialTimeout, its Hello included.
	leg client.Config

	// mu serializes fleet changes and the probe loops they start.
	mu sync.Mutex
}

// New validates cfg and returns an unstarted proxy.
func New(cfg config.Proxy) (*Proxy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg: cfg,
		// The proxy runs the same power model as the gateways it fronts,
		// so its per-backend energy aggregation (rebuilt from relayed
		// BatchStats wire counters) is commensurate with theirs.
		met: newMetrics(cfg.TraceBuffer, power.NewModel().Estimator()),
	}
	host, err := serve.New(cfg.Listener, serve.Tier[*session]{
		Name:          "proxy",
		MetricsPrefix: "bxtproxy_",
		Open:          p.newSession,
		Routes:        p.routes,
		Metrics:       func(w io.Writer) { p.met.writeExposition(w, p.backendList()) },
		StreamLimit:   cfg.StreamLimit,
		Traces:        p.met.traces,
		Stages:        p.met.stages,
	})
	if err != nil {
		return nil, err
	}
	p.host, p.log = host, host.Logger()
	p.leg = client.Config{DialTimeout: cfg.DialTimeout, IOTimeout: cfg.ExchangeTimeout, Dialer: p.dialBackend}
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
	p.host.Go(func() { p.probeLoop(b) })
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

// SetFaults arms the chaos injector on the backend leg: every backend
// connection's byte stream, probes included, runs through it. Call before
// Start.
func (p *Proxy) SetFaults(in *faults.Injector) { p.inj = in }

// Logger returns the proxy's structured logger.
func (p *Proxy) Logger() *slog.Logger { return p.log }

// routes mounts bxtproxy's own routes on the metrics listener: per-backend
// /drain, /backends, and — only when cfg.Debug — the relay-span ring.
func (p *Proxy) routes(mux *http.ServeMux) {
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
}

// Start opens both listeners, launches one health-probe loop per backend,
// and begins serving. It returns immediately; use Shutdown/Close to stop.
func (p *Proxy) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.host.Start(); err != nil {
		return err
	}
	for _, b := range p.backendList() {
		b := b
		p.host.Go(func() { p.probeLoop(b) })
	}
	return nil
}

// Addr returns the client-facing listener's bound address.
func (p *Proxy) Addr() string { return p.host.Addr() }

// MetricsAddr returns the metrics listener's bound address.
func (p *Proxy) MetricsAddr() string { return p.host.MetricsAddr() }

func (p *Proxy) newSession(conn net.Conn, id uint64) *session {
	ss := &session{
		p:    p,
		id:   id,
		conn: conn,
		in:   p.host.NewReader(conn),
		w:    p.host.NewWriter(conn),
		log:  p.log.With("session", id, "remote", conn.RemoteAddr().String()),
		ups:  make(map[*backend]*client.Mux),
	}
	ss.streams = serve.NewStreams(p.host, ss.w, ss.log, ss.openStream, ss.closeStream)
	return ss
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
//
// Each candidate's live counters are read once, into a snapshot the pick
// is made from: other sessions move pending and the EWMA concurrently, and
// a second read could push the only eligible backend out of its own tie
// band.
func (p *Proxy) pickStateless(schemeName string, excluded map[*backend]bool) *backend {
	type candidate struct {
		b        *backend
		latency  float64
		pending  int64
		batches  uint64
		weighted float64
	}
	var room [8]candidate
	cands := room[:0]
	// Fastest observed latency across the fleet stands in for unmeasured
	// candidates; 1 (a virtual nanosecond) keeps the score proportional
	// to pending when nothing is measured yet.
	fastest := 1.0
	for _, b := range p.backendList() {
		if b.ejected.Load() || b.draining.Load() || excluded[b] {
			continue
		}
		c := candidate{b: b, latency: b.exchangeEWMA(schemeName), pending: b.pending.Load(), batches: b.batches.Load()}
		if c.latency > 0 && (fastest == 1.0 || c.latency < fastest) {
			fastest = c.latency
		}
		cands = append(cands, c)
	}
	minScore := 0.0
	for i := range cands {
		c := &cands[i]
		if c.latency == 0 {
			c.latency = fastest
		}
		c.weighted = float64(c.pending+1) * c.latency
		if i == 0 || c.weighted < minScore {
			minScore = c.weighted
		}
	}
	var best *candidate
	for i := range cands {
		c := &cands[i]
		if c.weighted <= minScore*weightTieBand && (best == nil || c.batches < best.batches) {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	return best.b
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

// dialBackend opens one connection to a backend, for the sessions'
// backend legs and the health probes alike, through the fault injector
// when one is armed.
func (p *Proxy) dialBackend(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := p.host.Dial(ctx, addr)
	if err == nil && p.inj != nil {
		conn = p.inj.WrapConn(conn)
	}
	return conn, err
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
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	for {
		p.probe(b)
		select {
		case <-p.host.Stopping():
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
	c, err := client.DialConfig(b.addr, p.cfg.ProbeScheme, probeTxnSize, p.leg)
	if err != nil {
		p.noteBackendFailure(b, "probe", err)
		return
	}
	c.Close()
	p.noteBackendOK(b)
}

// Shutdown drains the proxy: it stops accepting and probing, flips
// /healthz to draining, interrupts idle session reads, lets in-flight
// batches complete, and waits for every session to close. The metrics
// endpoint stays up (reporting the draining state) until Close. Shutdown
// returns ctx's error if the drain does not finish in time, after
// force-closing the stragglers.
func (p *Proxy) Shutdown(ctx context.Context) error { return p.host.Shutdown(ctx) }

// Close releases everything: an immediate drain bounded by DrainTimeout,
// then the metrics endpoint.
func (p *Proxy) Close() error { return p.host.Close() }
