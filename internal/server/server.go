// Package server implements bxtd, the concurrent Base+XOR transcoding
// gateway: a TCP daemon that speaks the length-prefixed BXTP protocol
// (internal/trace), runs one registry codec per client session, and answers
// every batch of transactions with the encoded frames plus wire-level
// activity and energy accounting from the repository's POD/GDDR5X models.
//
// Concurrency structure: the connection host (internal/serve, shared with
// bxtproxy) admits at most MaxConns sessions and runs the drain; each
// session runs on one goroutine (frame parsing, batch encoding and reply
// writing), with all encoding passing through one server-wide worker pool
// so a deployment can bound CPU regardless of connection count. Read and write deadlines bound every socket operation,
// so a stalled or malicious client costs one connection slot, never a pool
// worker. Shutdown drains: the listener closes, /healthz flips to
// draining, in-flight batches complete and flush, then sessions close.
//
// Observability (internal/obs): structured slog logging with per-session
// IDs, per-(scheme, stage) latency histograms, live wire-energy telemetry
// (integer ones/toggles/bits counters per scheme and leg, evaluated
// through the power model at scrape time), and Go runtime gauges on
// /metrics, and — when config.Listener.Debug is set — net/http/pprof, a
// /debug/trace ring of per-batch pipeline spans keyed by the BXTP
// trace id, a /debug/events ring of recent lifecycle events (with
// severity, kind, and trace filters), and the /debug/poison ring of
// quarantined panic batches on the metrics listener.
package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/power"
	"github.com/hpca18/bxt/internal/serve"
)

// Server is a bxtd gateway instance.
type Server struct {
	cfg    config.Server
	host   *serve.Host[*session]
	met    *metrics
	log    *slog.Logger
	events *obs.EventBuffer
	model  *power.Model
	// slots is the worker pool: holding a token admits one batch encode.
	slots chan struct{}
	// pending counts batches waiting for a worker slot across all
	// sessions; beyond cfg.MaxPending the admission gate sheds instead of
	// queueing deeper.
	pending atomic.Int64
	// poison quarantines batches whose codec encode panicked, for the
	// /debug/poison surface.
	poison *poisonRing
	// inj, when non-nil (the hidden -chaos flag, or tests), injects
	// transport faults into every accepted connection and codec faults
	// into every session codec.
	inj *faults.Injector
	// sc holds the similarity-cache instances (one per scheme and
	// transaction size) that short-circuit encoding for repeated and
	// near-repeated transactions on cacheable schemes.
	sc simCaches

	// testHookBatch, when non-nil, runs at the start of every batch
	// encode. Tests use it to hold a batch in flight across a shutdown.
	testHookBatch func()
}

// New validates cfg and returns an unstarted server. The structured
// logger (level and format from cfg) writes to stderr.
func New(cfg config.Server) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model := power.NewModel()
	s := &Server{
		cfg:    cfg,
		met:    newMetrics(cfg.TraceBuffer, model.Estimator()),
		events: obs.NewEventBuffer(cfg.EventBuffer),
		model:  model,
		slots:  make(chan struct{}, cfg.Workers),
		poison: newPoisonRing(16),
	}
	host, err := serve.New(cfg.Listener, serve.Tier[*session]{
		Name:          "server",
		MetricsPrefix: "bxtd_",
		Open:          s.newSession,
		Routes:        s.routes,
		Metrics: func(w io.Writer) {
			s.met.writeExposition(w)
			s.writeSimcacheMetrics(w)
		},
		Events:      s.events,
		StreamLimit: cfg.StreamLimit,
		Traces:      s.met.traces,
		Stages:      s.met.stages,
	})
	if err != nil {
		return nil, err
	}
	s.host, s.log = host, host.Logger()
	return s, nil
}

// SetFaults arms the chaos injector: every subsequently accepted
// connection's byte stream and every session codec run through it. Call
// before Start; a nil injector disables injection.
func (s *Server) SetFaults(in *faults.Injector) { s.inj = in }

// admit acquires a worker slot for one batch encode. The wait is bounded:
// a queue already MaxPending deep, or a slot not freeing within
// AdmitTimeout, returns false and the caller answers with a retryable Busy
// frame.
func (s *Server) admit() bool {
	select {
	case s.slots <- struct{}{}:
		return true // uncontended fast path: no queueing, no timer
	default:
	}
	if int(s.pending.Add(1)) > s.cfg.MaxPending {
		s.pending.Add(-1)
		return false
	}
	defer s.pending.Add(-1)
	t := time.NewTimer(s.cfg.AdmitTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// release returns a worker slot.
func (s *Server) release() { <-s.slots }

// Logger returns the server's structured logger, so the embedding command
// logs through the same handler.
func (s *Server) Logger() *slog.Logger { return s.log }

// routes mounts bxtd's own routes on the metrics listener: /drain, and —
// only when cfg.Debug — the event and poison rings.
func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		s.BeginDrain()
		fmt.Fprintln(w, "draining")
	})
	if s.cfg.Debug {
		mux.Handle("/debug/events", s.events)
		mux.Handle("/debug/poison", s.poison)
	}
}

// Start opens both listeners and begins serving. It returns immediately;
// use Shutdown/Close to stop.
func (s *Server) Start() error { return s.host.Start() }

// Addr returns the transcoding listener's bound address (useful with
// ":0" configs in tests).
func (s *Server) Addr() string { return s.host.Addr() }

// MetricsAddr returns the metrics listener's bound address.
func (s *Server) MetricsAddr() string { return s.host.MetricsAddr() }

// BeginDrain puts the gateway into lame-duck mode for a zero-downtime
// rollout: /healthz flips to draining and new connections are refused, so
// a fronting proxy ejects this backend and live-migrates its pinned
// stateful sessions elsewhere — while established sessions keep serving
// batches and state snapshots until their clients let go. Call Shutdown
// afterwards to actually stop.
func (s *Server) BeginDrain() { s.host.BeginLameDuck() }

// newSession builds the session for an admitted connection, behind the
// chaos injector when one is armed.
func (s *Server) newSession(conn net.Conn, id uint64) *session {
	if s.inj != nil {
		conn = s.inj.WrapConn(conn)
	}
	ss := &session{
		srv:  s,
		id:   id,
		conn: conn,
		in:   s.host.NewReader(conn),
		w:    s.host.NewWriter(conn),
		log:  s.log.With("session", id),
	}
	ss.streams = serve.NewStreams(s.host, ss.w, ss.log, ss.addStream,
		func(st *stream) { ss.closeStream(st, "") })
	return ss
}

// Shutdown drains the gateway: it stops accepting, flips /healthz to
// draining, interrupts idle session reads, lets in-flight batches complete
// and flush, and waits for every session to close. The metrics endpoint
// stays up (reporting the draining state) until Close. Shutdown returns
// ctx's error if the drain does not finish in time, after force-closing
// the stragglers.
func (s *Server) Shutdown(ctx context.Context) error { return s.host.Shutdown(ctx) }

// Close releases everything, including the metrics endpoint. It is safe to
// call after Shutdown, and also alone (it performs an immediate drain).
func (s *Server) Close() error { return s.host.Close() }
