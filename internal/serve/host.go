// Package serve is the connection host and session core both BXTP
// serving tiers run on: bxtd (internal/server) and bxtproxy
// (internal/proxy). The host owns everything about a client connection
// that does not depend on what the tier does with its frames:
//
//   - the BXTP and metrics listeners, with the /healthz and /metrics
//     routes and, when config.Listener.Debug is set, the /debug/trace and
//     net/http/pprof routes;
//   - the MaxConns cap and the Error-frame refusals for "at capacity" and
//     "draining";
//   - the session registry and the session ids;
//   - the draining flag and bxtd's lame-duck flag;
//   - the connections_*, streams_*, stream_refused_total and draining
//     metric families;
//   - the Hello read and version check, and the idle-deadline frame read
//     (Reader);
//   - the frame write under the write deadline, one Write per burst of
//     answers, whose lock is the barrier /metrics and /debug/trace wait on
//     (Writer);
//   - the stream table: StreamOpen and StreamClose, the duplicate-id and
//     StreamLimit refusals, the "unknown stream" answers, and the streams'
//     teardown when the session ends (Streams);
//   - the drain protocol: stop accepting, fire every session's read
//     deadline and keep re-firing it, force-close whatever is left when
//     the drain budget expires, wait, then close the metrics listener.
//
// A tier plugs in through Tier: it builds a session for each admitted
// connection, opens and closes its streams, mounts its own routes, and
// writes its own metric families. Each session runs on one goroutine,
// which reads, serves and writes every frame of its connection.
//
// Both tiers keep one ledger per batch: each stage time is written once,
// into the batch's obs.Span, and the span is recorded (stage histograms,
// and the trace ring for a reply) in one call when the Write carrying the
// batch's answer ends, under the Writer's lock. /metrics and /debug/trace
// both wait on that lock, so once a client holds an answer, both surfaces
// count it. A stream whose answer is still held writes it out before its
// next batch reuses the span.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// Session is a tier's state for one admitted connection.
type Session interface {
	comparable
	// Serve runs the session to completion and closes its connection.
	Serve()
	// Writer returns the Writer the session sends its frames through.
	Writer() *Writer
}

// Tier is what a serving tier plugs into the host.
type Tier[S Session] struct {
	// Name ("server", "proxy") prefixes the host's errors and refusals.
	Name string
	// MetricsPrefix ("bxtd_", "bxtproxy_") prefixes the host's metric
	// families.
	MetricsPrefix string
	// Open builds the session for an admitted connection; id numbers it
	// for logs and events. It runs under the host's lock, so it must not
	// block or call back into the host.
	Open func(conn net.Conn, id uint64) S
	// Routes mounts the tier's own routes on the metrics listener.
	Routes func(*http.ServeMux)
	// Metrics writes the tier's metric families after the host's.
	Metrics func(io.Writer)
	// StreamLimit caps the streams one session's Streams holds open.
	StreamLimit int
	// Traces and Stages, when Traces is non-nil and config.Listener.Debug
	// is set, back /debug/trace: the tier's span ring and its stage
	// histograms' exemplars.
	Traces *obs.TraceRing
	Stages *obs.HistogramTracer
	// Events, when non-nil, records the host's conn_refused and
	// drain_begin lifecycle events.
	Events *obs.EventBuffer
}

// Host is one tier's connection host.
type Host[S Session] struct {
	cfg  config.Listener
	tier Tier[S]
	log  *slog.Logger

	connsActive   atomic.Int64
	connsTotal    atomic.Uint64
	connsRejected atomic.Uint64
	ids           atomic.Uint64
	streams       streamCounts
	// draining is set once, under mu, when Shutdown begins; session reads
	// poll it lock-free between frames.
	draining atomic.Bool
	// stop closes when draining begins, ending Go's loops.
	stop chan struct{}

	mu       sync.Mutex
	ln       net.Listener
	httpLn   net.Listener
	httpSrv  *http.Server
	sessions map[S]net.Conn
	started  bool
	// lameduck is bxtd's zero-downtime drain state: new connections and
	// health probes are refused, so a fronting proxy ejects the backend
	// and migrates its pinned sessions away, while established sessions
	// keep serving. Shutdown still sets draining, which is what winds the
	// read loops down.
	lameduck bool

	wg sync.WaitGroup // accept loop, sessions, and Go's goroutines
}

// New returns an unstarted host for cfg, which the tier has validated. Its
// structured logger (level and format from cfg) writes to stderr.
func New[S Session](cfg config.Listener, tier Tier[S]) (*Host[S], error) {
	logger, err := obs.NewLogger(os.Stderr, cfg.LogLevel, cfg.LogFormat)
	if err != nil {
		return nil, err
	}
	return &Host[S]{
		cfg:      cfg,
		tier:     tier,
		log:      logger,
		stop:     make(chan struct{}),
		sessions: make(map[S]net.Conn),
	}, nil
}

// Logger returns the host's structured logger.
func (h *Host[S]) Logger() *slog.Logger { return h.log }

// Start opens both listeners and begins serving. It returns immediately;
// use Shutdown/Close to stop.
func (h *Host[S]) Start() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.started {
		return fmt.Errorf("%s: already started", h.tier.Name)
	}
	ln, err := net.Listen("tcp", h.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("%s: listen %s: %w", h.tier.Name, h.cfg.ListenAddr, err)
	}
	httpLn, err := net.Listen("tcp", h.cfg.MetricsAddr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("%s: listen %s: %w", h.tier.Name, h.cfg.MetricsAddr, err)
	}
	h.ln, h.httpLn = ln, httpLn
	h.httpSrv = &http.Server{Handler: h.mux()}
	h.started = true
	h.log.Info("listening",
		"addr", ln.Addr().String(),
		"metrics_addr", httpLn.Addr().String(),
		"debug", h.cfg.Debug,
		"max_conns", h.cfg.MaxConns)

	go h.httpSrv.Serve(httpLn) //nolint:errcheck // returns on Close
	h.wg.Add(1)
	go h.acceptLoop(ln)
	return nil
}

// mux assembles the metrics listener's handler: health, metrics, pprof
// when cfg.Debug, and the tier's own routes.
func (h *Host[S]) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if h.refusing() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		h.awaitWrites()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		e := obs.Expo{W: w, Prefix: h.tier.MetricsPrefix}
		d := int64(0)
		if h.refusing() {
			d = 1
		}
		e.Int(obs.FamDraining, "", d)
		e.Int(obs.FamConnsActive, "", h.connsActive.Load())
		e.Uint(obs.FamConnsTotal, "", h.connsTotal.Load())
		e.Uint(obs.FamConnsRejected, "", h.connsRejected.Load())
		e.Int(obs.FamStreamsOpen, "", h.streams.open.Load())
		e.Uint(obs.FamStreamsTotal, "", h.streams.total.Load())
		e.Uint(obs.FamStreamRefused, "", h.streams.refused.Load())
		h.tier.Metrics(w)
	})
	if h.cfg.Debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if h.tier.Traces != nil {
			traces := obs.TraceHandler(h.tier.Traces, h.tier.Stages)
			mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
				h.awaitWrites()
				traces.ServeHTTP(w, r)
			})
		}
	}
	h.tier.Routes(mux)
	return mux
}

// Addr returns the BXTP listener's bound address, or "" before Start.
func (h *Host[S]) Addr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ln == nil {
		return ""
	}
	return h.ln.Addr().String()
}

// MetricsAddr returns the metrics listener's bound address, or "" before
// Start.
func (h *Host[S]) MetricsAddr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.httpLn == nil {
		return ""
	}
	return h.httpLn.Addr().String()
}

// refusing reports whether the host is turning away new sessions and
// health probes: draining or lame-duck.
func (h *Host[S]) refusing() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.draining.Load() || h.lameduck
}

// BeginLameDuck enters lame-duck mode: /healthz answers 503 and new
// connections are refused, while established sessions keep serving until
// Shutdown.
func (h *Host[S]) BeginLameDuck() {
	h.mu.Lock()
	already := h.draining.Load() || h.lameduck
	h.lameduck = true
	n := len(h.sessions)
	h.mu.Unlock()
	if already {
		return
	}
	h.log.Info("lame-duck drain begun", "open_sessions", n)
	h.event(obs.EventDrainBegin, fmt.Sprintf("lame-duck: %d open sessions", n))
}

// Sessions returns a snapshot of the live sessions.
func (h *Host[S]) Sessions() []S {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]S, 0, len(h.sessions))
	for ss := range h.sessions {
		out = append(out, ss)
	}
	return out
}

// awaitWrites waits out any frame write in progress on a live session. A
// tier records a batch's span under its Writer's lock, after the answer is
// written, so once this returns every answer a client already holds is on
// /metrics and, for a reply, on /debug/trace.
func (h *Host[S]) awaitWrites() {
	for _, ss := range h.Sessions() {
		ss.Writer().await()
	}
}

// Active returns the number of sessions being served.
func (h *Host[S]) Active() int64 { return h.connsActive.Load() }

// Go runs f on its own goroutine, which Shutdown waits for, when the host
// is serving (started and not draining); otherwise f never runs. f should
// return once Stopping closes.
func (h *Host[S]) Go(f func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.started || h.draining.Load() {
		return
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		f()
	}()
}

// Stopping returns a channel that closes when draining begins.
func (h *Host[S]) Stopping() <-chan struct{} { return h.stop }

// connHook, when non-nil, wraps every connection a host accepts or dials
// before its tier sees it. It is a test seam for counting a leg's reads
// and writes; it is set only while no host is running.
var connHook func(net.Conn) net.Conn

// copyHook, when non-nil, is told of every frame a Writer copies into its
// pending block, with the Writer's connection and the bytes copied. It is
// a test seam for the copy ledger, set only while no host is running.
var copyHook func(conn net.Conn, n int)

// Dial opens an outbound TCP connection for the tier (bxtproxy's backend
// legs and health probes) within ctx.
func (h *Host[S]) Dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err == nil && connHook != nil {
		conn = connHook(conn)
	}
	return conn, err
}

// acceptLoop admits sessions up to the connection cap.
func (h *Host[S]) acceptLoop(ln net.Listener) {
	defer h.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown/Close
		}
		if connHook != nil {
			conn = connHook(conn)
		}
		h.connsTotal.Add(1)
		if int(h.connsActive.Load()) >= h.cfg.MaxConns {
			h.connsRejected.Add(1)
			h.refuse(conn, h.tier.Name+" at connection capacity")
			continue
		}
		ss, ok := h.admit(conn)
		if !ok {
			h.refuse(conn, h.tier.Name+" is draining")
			continue
		}
		h.connsActive.Add(1)
		go func() {
			defer h.wg.Done()
			defer h.connsActive.Add(-1)
			defer h.drop(ss)
			ss.Serve()
		}()
	}
}

// admit registers a session for conn, or reports false while refusing
// (draining or lame-duck). The caller's goroutine is counted in wg.
func (h *Host[S]) admit(conn net.Conn) (S, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining.Load() || h.lameduck {
		var none S
		return none, false
	}
	ss := h.tier.Open(conn, h.ids.Add(1))
	h.sessions[ss] = conn
	h.wg.Add(1)
	return ss, true
}

func (h *Host[S]) drop(ss S) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.sessions, ss)
}

// refuse answers conn with an Error frame naming reason and closes it.
func (h *Host[S]) refuse(conn net.Conn, reason string) {
	h.log.Warn("connection refused", "remote", conn.RemoteAddr().String(), "reason", reason)
	h.event(obs.EventConnRefused, reason)
	h.NewWriter(conn).Send(trace.FrameError, []byte(reason))
	conn.Close()
}

func (h *Host[S]) event(typ, detail string) {
	if h.tier.Events != nil {
		h.tier.Events.Add(obs.Event{Type: typ, Detail: detail})
	}
}

// fireReads expires every live session's pending read, so a reader
// blocked on an idle socket wakes, sees the draining flag, and winds down
// after flushing whatever is in flight.
func (h *Host[S]) fireReads() {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	for _, conn := range h.sessions {
		conn.SetReadDeadline(now)
	}
}

// Shutdown drains the host: it stops accepting and ends Go's loops, flips
// /healthz to draining, interrupts idle session reads, lets in-flight
// batches complete and flush, and waits for every session to close. The
// metrics endpoint stays up (reporting the draining state) until Close.
// Shutdown returns ctx's error if the drain does not finish in time,
// after force-closing the stragglers.
func (h *Host[S]) Shutdown(ctx context.Context) error {
	h.mu.Lock()
	if !h.started {
		h.mu.Unlock()
		return nil
	}
	first := !h.draining.Swap(true)
	open := len(h.sessions)
	h.mu.Unlock()

	if first {
		h.log.Info("draining", "open_sessions", open)
		h.event(obs.EventDrainBegin, fmt.Sprintf("%d open sessions", open))
		close(h.stop)
		h.ln.Close()
	}
	h.fireReads()

	done := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(done)
	}()
	// A session that was mid-batch when the deadlines fired re-arms its
	// read deadline on its next frame; keep re-firing until the drain
	// completes so no reader sits out its full idle timeout.
	go func() {
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				h.fireReads()
			}
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		h.mu.Lock()
		for _, conn := range h.sessions {
			conn.Close()
		}
		h.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close releases everything: a drain bounded by DrainTimeout, then the
// metrics endpoint. It is safe to call after Shutdown, and also alone.
func (h *Host[S]) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.DrainTimeout)
	defer cancel()
	err := h.Shutdown(ctx)
	h.mu.Lock()
	httpSrv := h.httpSrv
	h.httpSrv = nil
	h.mu.Unlock()
	if httpSrv != nil {
		httpSrv.Close()
	}
	return err
}

// ErrEnd is the Reader's verdict that the session ends without an Error
// frame: the client closed cleanly, the host is draining, the socket
// broke, or the first frame may be a damaged Hello.
var ErrEnd = errors.New("serve: session ended")

// errIdle is the Error-frame text for a client that sent nothing for
// ReadTimeout.
var errIdle = errors.New("idle timeout waiting for frame")

// Reader is the read half of one session's connection: the Hello check
// and every later frame read, under the host's idle deadline. The zero
// value is not usable; get one from NewReader. A Reader is not safe for
// concurrent use.
type Reader struct {
	conn     net.Conn
	timeout  time.Duration
	draining *atomic.Bool
	// in reads the connection's frames in place. Its buffer grows with
	// the largest frame the client has sent (trace.MaxFrameBytes caps
	// it), so steady-state reads allocate nothing and a connection that
	// never sends a batch never holds a batch-sized buffer.
	in trace.FrameReader
	// armedAt is when the read deadline was last set.
	armedAt time.Time
}

// Writer is the write half of one session's connection: every frame the
// session sends leaves through it whole, under the host's write deadline,
// and no Write ends partway through a frame. Its lock orders the session's
// writes against /metrics and /debug/trace. Get one from NewWriter.
//
// Inside a burst — while Streams.Serve's Reader holds another whole frame,
// so its next read would not block — the Writer holds each frame in one
// pending block instead of writing it, and Serve writes the block out in
// one Write (Flush) before a read that would block. Outside a burst a frame
// is written at once, straight from the caller's buffer when nothing is
// held, so sequential traffic still makes one Write per frame.
type Writer struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
	// armedAt is when the write deadline was last set.
	armedAt time.Time
	// err latches the first write failure: the connection is closed then,
	// and every later frame is dropped.
	err error
	// block holds the frames not yet written, whole and back to back; Send,
	// SendStream and a session building a frame in place (Block) frame
	// theirs at its end.
	block []byte
	// held lists the done callbacks of the frames in block, in order.
	held []heldFrame
	// hold is set while a burst lasts; only the session goroutine touches
	// it.
	hold bool
}

// heldFrame is one written frame's done callback, with when the frame was
// ready: the zero time for one written outside a burst, which its Write
// times instead.
type heldFrame struct {
	done func(time.Duration)
	at   time.Time
}

// maxBlock caps the pending block: a burst that reaches it is written out
// at once, so no frame waits behind more than this many bytes of answers.
const maxBlock = 64 << 10

// NewWriter returns the Writer for conn.
func (h *Host[S]) NewWriter(conn net.Conn) *Writer {
	return &Writer{conn: conn, timeout: h.cfg.WriteTimeout}
}

// Write sends frame, one whole frame with its header sealed, which was
// ready at at. done, when non-nil, runs once the frame is written, still
// under the Writer's lock, with its frame_write time: from at to the end
// of the Write that carried it, or, for a frame written outside a burst or
// a zero at, from that Write's start. A tier records the answered batch's
// span there, so neither /metrics nor /debug/trace answers between an
// answer reaching its client and its span being recorded. done must not use
// the Writer.
//
// A held frame is copied into the block, unless it was built in place at
// the end of Block; frame may be reused once Write returns. The first
// failure, a slow client's expired deadline included, closes the
// connection, which ends the session's reads too; the Write (or Flush) that
// met it returns it, and every later one net.ErrClosed. Like Reader.Next, a
// write re-arms the deadline only once a quarter of the timeout has burned
// down, so a stuck client trips it within [3/4·WriteTimeout, WriteTimeout].
func (w *Writer) Write(frame []byte, at time.Time, done func(time.Duration)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.send(frame, at, done)
}

// Block returns the pending block's spare room, empty and with room for
// at least n bytes, for the session to build its next frame in, by
// appending to it or by slicing it to the frame's exact size: a frame that
// fits lands in place behind the held frames, and Write takes it without a
// copy. Only the session goroutine may
// call it, and nothing else may use the Writer until that frame is written.
func (w *Writer) Block(n int) []byte {
	w.block = slices.Grow(w.block, n)
	return w.block[len(w.block):]
}

// Refuse ends a session on err: with an Error frame carrying its text,
// unless err wraps ErrEnd.
func (w *Writer) Refuse(err error) {
	if !errors.Is(err, ErrEnd) {
		w.Send(trace.FrameError, []byte(err.Error()))
	}
}

// Send frames body as a t frame and sends it.
func (w *Writer) Send(t trace.FrameType, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seal(append(trace.BeginFrame(w.Block(trace.FrameHeaderBytes+len(body))), body...), t, nil)
}

// SendStream frames body behind stream sid's id prefix as a t frame and
// sends it; done is as for Write, timed from the Write that carries it.
func (w *Writer) SendStream(t trace.FrameType, sid uint32, body []byte, done func(time.Duration)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	room := trace.FrameHeaderBytes + 4 + len(body)
	return w.seal(append(trace.AppendStreamID(trace.BeginFrame(w.Block(room)), sid), body...), t, done)
}

func (w *Writer) seal(frame []byte, t trace.FrameType, done func(time.Duration)) error {
	if err := trace.SealFrame(frame, t); err != nil {
		return err
	}
	return w.send(frame, time.Time{}, done)
}

// send writes frame at once when nothing is held outside a burst, and
// otherwise adds it to the block, which it writes out unless a burst lasts
// and the block is under maxBlock.
func (w *Writer) send(frame []byte, at time.Time, done func(time.Duration)) error {
	if w.err != nil {
		return net.ErrClosed
	}
	n := len(w.block)
	if !w.hold && n == 0 {
		start, end, err := w.write(frame)
		if err == nil && done != nil {
			done(end.Sub(start))
		}
		return err
	}
	if n < cap(w.block) && &w.block[:n+1][n] == &frame[0] {
		w.block = w.block[:n+len(frame)] // built in place at the end of Block
	} else {
		if copyHook != nil {
			copyHook(w.conn, len(frame))
		}
		w.block = append(w.block, frame...)
	}
	if !w.hold {
		at = time.Time{}
	}
	if done != nil {
		w.held = append(w.held, heldFrame{done: done, at: at})
	}
	if w.hold && len(w.block) < maxBlock {
		return nil
	}
	return w.flush()
}

// Flush writes out every held frame in one Write, then runs their done
// callbacks in order. It returns the failure of that Write, or
// net.ErrClosed once an earlier failure closed the connection.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flush()
}

func (w *Writer) flush() error {
	if w.err != nil {
		return net.ErrClosed
	}
	if len(w.block) == 0 {
		return nil
	}
	start, end, err := w.write(w.block)
	if err == nil {
		for _, f := range w.held {
			if f.at.IsZero() {
				f.at = start
			}
			f.done(end.Sub(f.at))
		}
	}
	clear(w.held)
	w.held = w.held[:0]
	w.block = w.block[:0]
	return err
}

// write writes p in one Write under the deadline, returning when it began
// and ended, and latches a failure.
func (w *Writer) write(p []byte) (start, end time.Time, err error) {
	start = time.Now()
	if start.Sub(w.armedAt) > w.timeout>>2 {
		w.conn.SetWriteDeadline(start.Add(w.timeout))
		w.armedAt = start
	}
	if _, err := w.conn.Write(p); err != nil {
		w.err = err
		w.conn.Close()
		return start, end, err
	}
	return start, time.Now(), nil
}

// await returns once no write is in progress: taking the lock is the
// barrier.
func (w *Writer) await() {
	w.mu.Lock()
	defer w.mu.Unlock()
}

// Err returns the write failure that closed the connection, or nil.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// NewReader returns the Reader for conn.
func (h *Host[S]) NewReader(conn net.Conn) Reader {
	r := Reader{conn: conn, timeout: h.cfg.ReadTimeout, draining: &h.draining}
	r.in.Reset(conn)
	return r
}

// Hello reads and checks the session's first frame: it must be a sealed
// Hello that names trace.ProtocolVersion. The error's text is meant for
// the client's Error frame, which a requester reads as a refusal of its
// Hello. So a first frame that may be a damaged Hello ends the session
// silently instead (an error wrapping ErrEnd): one that failed to arrive
// whole, failed its seal, or carries a sealed Hello under another frame
// type.
func (r *Reader) Hello() (trace.Hello, error) {
	r.armedAt = time.Now()
	r.conn.SetReadDeadline(r.armedAt.Add(r.timeout))
	ft, body, err := r.in.Next()
	if err != nil {
		return trace.Hello{}, fmt.Errorf("%w: reading hello: %v", ErrEnd, err)
	}
	h, err := trace.ParseHello(body)
	switch {
	case ft != trace.FrameHello && err == nil:
		return trace.Hello{}, fmt.Errorf("%w: hello under frame type %#x", ErrEnd, byte(ft))
	case ft != trace.FrameHello:
		return trace.Hello{}, fmt.Errorf("expected hello frame, got %#x", byte(ft))
	case errors.Is(err, trace.ErrCRC):
		return trace.Hello{}, fmt.Errorf("%w: %v", ErrEnd, err)
	}
	return h, err
}

// Frame returns the frame Next last returned, header included, for a tier
// that relays it verbatim. It aliases the Reader's buffer like Next's body.
func (r *Reader) Frame() []byte { return r.in.Frame() }

// Next reads the session's next frame; body aliases the Reader's buffer
// until the following call, and start is when the read began. An error
// ends the session: ErrEnd silently, any other one after an Error frame
// carrying its text (an idle timeout or a malformed frame).
//
// One clock read serves both the deadline and the caller's stage timer,
// and the kernel timer is only re-armed once a quarter of the timeout has
// burned down: the effective idle limit stays within [3/4·ReadTimeout,
// ReadTimeout] while a busy session skips the per-frame deadline update.
func (r *Reader) Next() (ft trace.FrameType, body []byte, start time.Time, err error) {
	if r.draining.Load() {
		return 0, nil, start, ErrEnd
	}
	start = time.Now()
	if start.Sub(r.armedAt) > r.timeout>>2 {
		r.conn.SetReadDeadline(start.Add(r.timeout))
		r.armedAt = start
	}
	ft, body, err = r.in.Next()
	if err == nil {
		return ft, body, start, nil
	}
	if err == io.EOF || r.draining.Load() {
		return 0, nil, start, ErrEnd // a clean close, or the drain fired the deadline
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return 0, nil, start, errIdle
	}
	if errors.Is(err, trace.ErrBadFrame) {
		return 0, nil, start, err
	}
	return 0, nil, start, ErrEnd
}
