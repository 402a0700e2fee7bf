package proxy

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

// errRefused marks a backend that declined the session's parameters: an
// Error frame answering the Hello, or a StreamRefused verdict. The
// connection is not at fault and every backend would refuse the same
// parameters, so callers relay the refusal to the client instead of
// failing over.
var errRefused = errors.New("proxy: refused by backend")

// errEnded marks a backend that ended an upstream connection with an
// Error frame (idle timeout, drain, fault budget): the backend is alive
// enough to speak BXTP, so the connection is dropped and redialed, and the
// backend is never counted as failed for it.
var errEnded = errors.New("proxy: connection ended by backend")

// backend is one bxtd upstream: routing counters and the ejection state
// machine.
type backend struct {
	addr string

	// pending counts batches in flight on this backend right now; the
	// least-pending router reads it. batches and failures are lifetime
	// totals for /metrics; probes counts health-check handshakes.
	pending  atomic.Int64
	batches  atomic.Uint64
	failures atomic.Uint64
	probes   atomic.Uint64
	// pinned gauges the sessions currently consistent-hashed here.
	pinned atomic.Int64

	// consec counts consecutive failures toward ejection; any success
	// zeroes it. ejected removes the backend from routing until a probe
	// succeeds.
	consec  atomic.Int64
	ejected atomic.Bool
	// draining removes the backend from routing without declaring it
	// unhealthy (the /drain admin hook): new sessions and pin targets go
	// elsewhere, and pinned sessions live-migrate their codec state off
	// it on their next batch — while the backend stays reachable for
	// exactly those state-snapshot pulls. Unlike ejected, a successful
	// probe does not clear it.
	draining atomic.Bool

	// energy accumulates the wire activity this backend reported in its
	// relayed BatchStats replies, feeding the proxy's per-backend
	// bxtproxy_wire_* and bxtproxy_energy_* families. Set once at New.
	energy *obs.EnergyCounter

	// gone is closed when the backend is removed from the fleet at
	// runtime; its probe loop exits on it. goneOnce makes RemoveBackend
	// idempotent against double-removal races.
	gone     chan struct{}
	goneOnce sync.Once

	// lat holds one exchange-latency EWMA per scheme served through this
	// backend; the weighted stateless router reads it so schemes route
	// toward the backends that answer them fastest.
	lat sync.Map // scheme name -> *ewma
}

func newBackend(addr string) *backend {
	return &backend{
		addr: addr,
		gone: make(chan struct{}),
	}
}

// remove marks the backend as gone from the fleet, releasing its probe
// loop. Safe to call more than once.
func (b *backend) remove() {
	b.goneOnce.Do(func() { close(b.gone) })
}

// ewma is a lock-free exponentially weighted moving average of exchange
// latency, in float64 nanoseconds packed into an atomic word. Zero means
// no samples yet.
type ewma struct{ bits atomic.Uint64 }

// ewmaAlpha weights each new exchange sample; ~0.2 settles on a shifted
// latency within a dozen batches without chasing single outliers.
const ewmaAlpha = 0.2

func (e *ewma) observe(d time.Duration) {
	for {
		old := e.bits.Load()
		prev := math.Float64frombits(old)
		next := float64(d.Nanoseconds())
		if prev != 0 {
			next = prev + ewmaAlpha*(next-prev)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (e *ewma) load() float64 { return math.Float64frombits(e.bits.Load()) }

// observeExchange folds one backend_exchange duration into the
// per-scheme latency EWMA the weighted router consults. Only the first
// sample of a scheme allocates its EWMA; LoadOrStore alone would allocate
// a candidate on every batch.
func (b *backend) observeExchange(scheme string, d time.Duration) {
	v, ok := b.lat.Load(scheme)
	if !ok {
		v, _ = b.lat.LoadOrStore(scheme, new(ewma))
	}
	v.(*ewma).observe(d)
}

// exchangeEWMA returns the backend's smoothed exchange latency for
// scheme in nanoseconds, or 0 when it has never served the scheme.
func (b *backend) exchangeEWMA(scheme string) float64 {
	if v, ok := b.lat.Load(scheme); ok {
		return v.(*ewma).load()
	}
	return 0
}

// fail records one failure and reports whether it just crossed the
// ejection threshold.
func (b *backend) fail(threshold int) (ejectedNow bool) {
	b.failures.Add(1)
	if b.consec.Add(1) >= int64(threshold) {
		return !b.ejected.Swap(true)
	}
	return false
}

// ok records one success (probe or live traffic) and reports whether it
// just restored an ejected backend. A restore discards the latency EWMAs:
// they were measured before the outage, and routing on them would keep the
// restored backend looking slow (and cold) until traffic it never receives
// re-measures it. Unmeasured backends inherit the fleet's fastest latency,
// so the fresh start pulls traffic back instead.
func (b *backend) ok() (restored bool) {
	b.consec.Store(0)
	if b.ejected.Swap(false) {
		b.lat.Range(func(k, _ any) bool { b.lat.Delete(k); return true })
		return true
	}
	return false
}

// upstream is one live BXTP connection with a backend, handshaken with
// the session's Hello and usable for serial exchanges on any of the
// session's streams.
type upstream struct {
	b    *backend
	conn net.Conn
	// ok is the backend's checked HelloOK; the proxy relays MetaBits and
	// BatchLimit to the client verbatim.
	ok trace.Answer
	// in reads the backend's reply frames in place; wbuf frames the
	// proxy's own requests (Hello and admin frames).
	in   trace.FrameReader
	wbuf []byte
	// open tracks which streams are open on this connection (the Hello
	// opens stream 0). A stream marked false was open here when another
	// backend killed it: this backend may still have it, with its old
	// codec, or have killed it too (pstream.upstreamOn).
	open map[uint32]bool
}

// close closes u's connection; u must not be used afterwards.
func (u *upstream) close() { u.conn.Close() }

// handshake runs the BXTP Hello exchange for h within timeout. A backend
// Error reply surfaces as errRefused carrying the message.
func (u *upstream) handshake(h trace.Hello, timeout time.Duration) error {
	h.Version = trace.ProtocolVersion
	body, err := trace.MarshalHello(h)
	if err != nil {
		return err
	}
	ft, rbody, err := u.adminExchange(trace.FrameHello, body, timeout)
	if err != nil {
		return err
	}
	if u.ok, err = trace.CheckHello(ft, rbody); err != nil {
		return fmt.Errorf("proxy: backend %s: %w", u.b.addr, err)
	}
	if u.ok.Kind == trace.AnswerRefused {
		return fmt.Errorf("%w %s: %s", errRefused, u.b.addr, u.ok.Msg)
	}
	return nil
}

// errStateRejected marks a state-transfer exchange the backend answered
// cleanly but negatively (a non-OK StateAck): the upstream session is
// still in sync and usable, the state just did not move.
var errStateRejected = errors.New("proxy: backend rejected state transfer")

// adminExchange runs one serial admin round trip (write ft+body, read the
// reply) within timeout. The reply body aliases u.in's buffer.
func (u *upstream) adminExchange(ft trace.FrameType, body []byte, timeout time.Duration) (trace.FrameType, []byte, error) {
	frame, err := trace.AppendFrame(u.wbuf[:0], ft, body)
	u.wbuf = frame[:0]
	if err != nil {
		return 0, nil, err
	}
	return u.exchange(frame, timeout)
}

// openStream opens stream sid on an upstream connection with one
// StreamOpen exchange. It returns the backend's raw StreamOpenOK body
// (aliasing u.in's buffer) so the caller can relay the verdict verbatim. A
// refusal wraps errRefused and leaves the connection usable; an Error
// frame wraps errEnded, and any other error means the connection may be
// desynchronized.
func (u *upstream) openStream(o trace.StreamOpen, timeout time.Duration) ([]byte, error) {
	body, err := trace.MarshalStreamOpen(o)
	if err != nil {
		return nil, err
	}
	ft, rbody, err := u.adminExchange(trace.FrameStreamOpen, body, timeout)
	for err == nil && ft == trace.FrameStreamClosed {
		// The backend answering a batch relayed after it killed a stream:
		// the open's own answer follows.
		ft, rbody, err = u.in.Next()
	}
	if err != nil {
		return nil, err
	}
	a, err := trace.CheckStreamOpen(ft, rbody, o.ID)
	switch {
	case err != nil:
		return nil, fmt.Errorf("proxy: backend %s: %w", u.b.addr, err)
	case a.Kind == trace.AnswerEnded:
		return nil, fmt.Errorf("%w %s: %s", errEnded, u.b.addr, a.Msg)
	case a.Kind == trace.AnswerRefused:
		return rbody, fmt.Errorf("%w %s: %s", errRefused, u.b.addr, a.Msg)
	}
	u.open[o.ID] = true
	return rbody, nil
}

// closeStream retires stream sid on an upstream connection with one
// StreamClose exchange, keeping the serial request/reply discipline.
func (u *upstream) closeStream(sid uint32, timeout time.Duration) error {
	ft, rbody, err := u.adminExchange(trace.FrameStreamClose, trace.MarshalStreamClose(sid), timeout)
	if err != nil {
		return err
	}
	rsid, _, err := trace.ParseStreamClosed(rbody)
	if ft != trace.FrameStreamClosed || err != nil || rsid != sid {
		return fmt.Errorf("proxy: backend %s: malformed answer closing stream %d (frame %#x, stream %d, err %v)",
			u.b.addr, sid, byte(ft), rsid, err)
	}
	delete(u.open, sid)
	return nil
}

// pullSnapshot asks u's backend for one stream's codec state over a
// StateSnapshot admin exchange. It returns the state blob (copied, so it
// survives later exchanges) and the batch sequence it is current as of.
func (u *upstream) pullSnapshot(sid uint32, timeout time.Duration) (uint64, []byte, error) {
	seq, blob, err := u.stateExchange(trace.FrameStateSnapshot, sid, nil, timeout)
	return seq, append([]byte(nil), blob...), err
}

// restoreState installs a pulled codec state into one stream of u's
// backend session over a StateRestore admin exchange; the backend acks
// with the echoed sequence. A rejection leaves the backend stream freshly
// reset.
func (u *upstream) restoreState(sid uint32, seq uint64, state []byte, timeout time.Duration) error {
	aseq, _, err := u.stateExchange(trace.FrameStateRestore, sid, trace.MarshalStateRestore(seq, state), timeout)
	if err == nil && aseq != seq {
		err = fmt.Errorf("proxy: backend %s acked restore at sequence %d, want %d", u.b.addr, aseq, seq)
	}
	return err
}

// stateExchange runs one state-transfer admin exchange (ft, then body) on
// stream sid and returns the StateAck's sequence and payload, which
// aliases u.in's buffer. A clean rejection wraps errStateRejected; any
// other error means the frame stream may be desynchronized and u should
// be dropped.
func (u *upstream) stateExchange(ft trace.FrameType, sid uint32, body []byte, timeout time.Duration) (uint64, []byte, error) {
	ft, rbody, err := u.adminExchange(ft, append(trace.AppendStreamID(nil, sid), body...), timeout)
	if err != nil {
		return 0, nil, err
	}
	if ft != trace.FrameStateAck {
		return 0, nil, fmt.Errorf("proxy: backend %s answered a state transfer with frame %#x", u.b.addr, byte(ft))
	}
	rsid, rbody, err := trace.SplitStreamID(rbody)
	if err == nil && rsid != sid {
		err = fmt.Errorf("proxy: backend %s answered on stream %d, want %d", u.b.addr, rsid, sid)
	}
	if err != nil {
		return 0, nil, err
	}
	status, seq, payload, err := trace.ParseStateAck(rbody)
	if err == nil && status != trace.StateOK {
		err = fmt.Errorf("%w: backend %s: %s", errStateRejected, u.b.addr, payload)
	}
	return seq, payload, err
}

// exchange writes one whole frame, header included, in one Write and
// reads the reply frame, all within timeout. A relayed client Batch frame
// goes out verbatim from the client leg's read buffer. The returned body
// — and u.in.Frame(), the whole reply — alias u.in's buffer and are valid
// until the next exchange.
func (u *upstream) exchange(frame []byte, timeout time.Duration) (trace.FrameType, []byte, error) {
	u.conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := u.conn.Write(frame); err != nil {
		return 0, nil, err
	}
	u.conn.SetReadDeadline(time.Now().Add(timeout))
	return u.in.Next()
}
