// Package server implements bxtd, the concurrent Base+XOR transcoding
// gateway: a TCP daemon that speaks the length-prefixed BXTP protocol
// (internal/trace), runs one registry codec per client session, and answers
// every batch of transactions with the encoded frames plus wire-level
// activity and energy accounting from the repository's POD/GDDR5X models.
//
// Concurrency structure: an accept loop admits at most MaxConns sessions;
// each session runs a read goroutine (frame parsing + batch encoding) and a
// write goroutine (reply serialization), with all encoding passing through
// one server-wide worker pool so a deployment can bound CPU regardless of
// connection count. Read and write deadlines bound every socket operation,
// so a stalled or malicious client costs one connection slot, never a pool
// worker. Shutdown drains: the listener closes, /healthz flips to
// draining, in-flight batches complete and flush, then sessions close.
//
// Observability (internal/obs): structured slog logging with per-session
// IDs, per-(scheme, stage) latency histograms, live wire-energy telemetry
// (integer ones/toggles/bits counters per scheme and leg, evaluated
// through the power model at scrape time), and Go runtime gauges on
// /metrics, and — when config.Server.Debug is set — net/http/pprof, a
// /debug/trace ring of per-batch pipeline spans keyed by the BXTP
// trace id, and a /debug/events ring of recent lifecycle events (with
// severity, kind, and trace filters) on the metrics listener.
package server

import (
	"context"
	"errors"
	"fmt"
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

// Server is a bxtd gateway instance.
type Server struct {
	cfg    config.Server
	met    *metrics
	log    *slog.Logger
	events *obs.EventBuffer
	model  *power.Model
	// sessionIDs hands out the per-connection IDs that correlate logs,
	// events and errors for one session.
	sessionIDs atomic.Uint64
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

	mu       sync.Mutex
	ln       net.Listener
	httpLn   net.Listener
	httpSrv  *http.Server
	sessions map[*session]struct{}
	started  bool
	draining bool
	// lameduck is the zero-downtime drain state (/drain, BeginDrain):
	// new connections and health probes are refused so a fronting proxy
	// ejects this backend and migrates its pinned sessions away, but
	// established sessions keep serving — including the state snapshots
	// those migrations pull. Shutdown still sets draining, which is what
	// actually winds the read loops down.
	lameduck bool

	wg sync.WaitGroup // accept loop + sessions

	// testHookBatch, when non-nil, runs at the start of every batch
	// encode. Tests use it to hold a batch in flight across a shutdown.
	testHookBatch func()
}

// New validates cfg and returns an unstarted server. The structured
// logger (level and format from cfg) writes to stderr; swap it with
// SetLogger before Start.
func New(cfg config.Server) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logger, err := obs.NewLogger(os.Stderr, cfg.LogLevel, cfg.LogFormat)
	if err != nil {
		return nil, err // unreachable after Validate, but keep the contract
	}
	model := power.NewModel()
	return &Server{
		cfg:      cfg,
		met:      newMetrics(cfg.TraceBuffer, model.Estimator()),
		log:      logger,
		events:   obs.NewEventBuffer(cfg.EventBuffer),
		model:    model,
		slots:    make(chan struct{}, cfg.Workers),
		poison:   newPoisonRing(16),
		sessions: make(map[*session]struct{}),
	}, nil
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

// SetLogger replaces the logger; call before Start.
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.log = l
	}
}

// Tracer returns the per-(scheme, stage) latency tracer backing the
// bxtd_stage_seconds exposition.
func (s *Server) Tracer() obs.Tracer { return s.met.stages }

// buildMux assembles the metrics listener's handler: health, metrics,
// and — only when cfg.Debug — the pprof and event-ring debug surfaces.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.isRefusing() {
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
		s.BeginDrain()
		fmt.Fprintln(w, "draining")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.met.writeExposition(w, s.isRefusing())
		s.writeSimcacheMetrics(w)
	})
	if s.cfg.Debug {
		mux.Handle("/debug/events", s.events)
		mux.Handle("/debug/poison", s.poison)
		traces := obs.TraceHandler(s.met.traces, s.met.stages)
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			s.awaitReplyWrites()
			traces.ServeHTTP(w, r)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Start opens both listeners and begins serving. It returns immediately;
// use Shutdown/Close to stop.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("server: already started")
	}
	ln, err := net.Listen("tcp", s.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.ListenAddr, err)
	}
	httpLn, err := net.Listen("tcp", s.cfg.MetricsAddr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("server: listen %s: %w", s.cfg.MetricsAddr, err)
	}
	s.ln, s.httpLn = ln, httpLn
	s.httpSrv = &http.Server{Handler: s.buildMux()}
	s.started = true
	s.log.Info("listening",
		"addr", ln.Addr().String(),
		"metrics_addr", httpLn.Addr().String(),
		"debug", s.cfg.Debug,
		"workers", s.cfg.Workers,
		"max_conns", s.cfg.MaxConns)

	go s.httpSrv.Serve(httpLn) //nolint:errcheck // returns on Close
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the transcoding listener's bound address (useful with
// ":0" configs in tests).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// MetricsAddr returns the metrics listener's bound address.
func (s *Server) MetricsAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// isDraining reports whether shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// isRefusing reports whether the gateway is turning away new sessions and
// health probes — either shutting down or in lame-duck mode.
func (s *Server) isRefusing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.lameduck
}

// BeginDrain puts the gateway into lame-duck mode for a zero-downtime
// rollout: /healthz flips to draining and new connections are refused, so
// a fronting proxy ejects this backend and live-migrates its pinned
// stateful sessions elsewhere — while established sessions keep serving
// batches and state snapshots until their clients let go. Call Shutdown
// afterwards to actually stop.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	already := s.draining || s.lameduck
	s.lameduck = true
	n := len(s.sessions)
	s.mu.Unlock()
	if already {
		return
	}
	s.log.Info("lame-duck drain begun", "open_sessions", n)
	s.events.Add(obs.Event{Type: obs.EventDrainBegin, Detail: fmt.Sprintf("lame-duck: %d open sessions", n)})
}

// acceptLoop admits sessions up to the connection limit.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown/Close
		}
		s.met.connsTotal.Add(1)
		if n := s.met.connsActive.Load(); int(n) >= s.cfg.MaxConns {
			s.met.connsRejected.Add(1)
			s.refuse(conn, "server at connection capacity")
			continue
		}
		if s.inj != nil {
			conn = s.inj.WrapConn(conn)
		}
		ss := s.newSession(conn)
		if ss == nil {
			s.refuse(conn, "server is draining")
			continue
		}
		s.wg.Add(1)
		s.met.connsActive.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.met.connsActive.Add(-1)
			defer s.dropSession(ss)
			ss.run()
		}()
	}
}

// refuse answers conn with an error frame and closes it.
func (s *Server) refuse(conn net.Conn, msg string) {
	s.log.Warn("connection refused", "remote", conn.RemoteAddr().String(), "reason", msg)
	s.events.Add(obs.Event{Type: obs.EventConnRefused, Detail: msg})
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_ = trace.WriteFrame(conn, trace.FrameError, []byte(msg))
	conn.Close()
}

// newSession registers a session, or returns nil when draining (shutdown
// or lame-duck).
func (s *Server) newSession(conn net.Conn) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.lameduck {
		return nil
	}
	ss := &session{
		srv:  s,
		id:   s.sessionIDs.Add(1),
		conn: conn,
		br:   trace.NewConnReader(conn),
		bw:   trace.NewConnWriter(conn),
	}
	s.sessions[ss] = struct{}{}
	return ss
}

func (s *Server) dropSession(ss *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, ss)
}

// awaitReplyWrites waits out any reply write in progress on a live
// session. A reply's span and frame_write sample are recorded under the
// session's write lock after the reply is flushed, so once this returns,
// every reply a client has already received is on /debug/trace.
func (s *Server) awaitReplyWrites() {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	for _, ss := range sessions {
		ss.awaitWrite()
	}
}

// Shutdown drains the gateway: it stops accepting, flips /healthz to
// draining, interrupts idle session reads, lets in-flight batches complete
// and flush, and waits for every session to close. The metrics endpoint
// stays up (reporting the draining state) until Close. Shutdown returns
// ctx's error if the drain does not finish in time, after force-closing
// the stragglers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil
	}
	already := s.draining
	s.draining = true
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()

	if !already {
		s.log.Info("draining", "open_sessions", len(sessions))
		s.events.Add(obs.Event{Type: obs.EventDrainBegin, Detail: fmt.Sprintf("%d open sessions", len(sessions))})
	}

	if !already && ln != nil {
		ln.Close()
	}
	// Fire every session's pending read immediately: readers blocked on
	// an idle socket wake with a timeout, see the draining flag, and wind
	// down after flushing whatever is in flight.
	for _, ss := range sessions {
		ss.conn.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
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
				s.mu.Lock()
				for ss := range s.sessions {
					ss.conn.SetReadDeadline(time.Now())
				}
				s.mu.Unlock()
			}
		}
	}()
	select {
	case <-done:
		// Every session has wound down, so no insert races the snapshot.
		s.saveSimCaches()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for ss := range s.sessions {
			ss.conn.Close()
		}
		s.mu.Unlock()
		<-done
		s.saveSimCaches()
		return ctx.Err()
	}
}

// Close releases everything, including the metrics endpoint. It is safe to
// call after Shutdown, and also alone (it performs an immediate drain).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.Shutdown(ctx)
	s.mu.Lock()
	httpSrv, httpLn := s.httpSrv, s.httpLn
	s.httpSrv, s.httpLn = nil, nil
	s.mu.Unlock()
	if httpSrv != nil {
		httpSrv.Close()
	} else if httpLn != nil {
		httpLn.Close()
	}
	return err
}
