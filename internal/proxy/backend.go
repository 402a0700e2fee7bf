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

// errUpstreamReject marks a backend that answered the Hello handshake with
// a protocol Error frame: the session parameters (scheme, transaction
// size) are wrong, not the backend. Callers relay the message to the
// client instead of failing over — every backend would reject the same
// Hello.
var errUpstreamReject = errors.New("proxy: backend rejected handshake")

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
	// ok is the backend's HelloOK; the proxy relays MetaBits and
	// BatchLimit to the client verbatim.
	ok trace.HelloOK
	// in reads the backend's reply frames in place; wbuf frames the
	// proxy's own requests (Hello and admin frames).
	in   trace.FrameReader
	wbuf []byte
	// open tracks which streams beyond 0 are open on this connection (the
	// Hello implicitly opens stream 0).
	open map[uint32]bool
}

// close closes u's connection; u must not be used afterwards.
func (u *upstream) close() { u.conn.Close() }

// handshake runs the BXTP Hello exchange for h within timeout. A backend
// Error reply surfaces as errUpstreamReject carrying the message; a
// HelloOK naming a revision other than trace.ProtocolVersion is a hard
// error, since the proxy relays frame bodies verbatim.
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
	switch ft {
	case trace.FrameHelloOK:
		ok, err := trace.ParseHelloOK(rbody)
		if err != nil {
			return err
		}
		if ok.Version != trace.ProtocolVersion {
			return fmt.Errorf("proxy: backend %s answered protocol %d, want %d", u.b.addr, ok.Version, trace.ProtocolVersion)
		}
		u.ok = ok
		return nil
	case trace.FrameError:
		return fmt.Errorf("%w: %s", errUpstreamReject, rbody)
	default:
		return fmt.Errorf("proxy: backend %s answered hello with frame 0x%02x", u.b.addr, byte(ft))
	}
}

// errStateRejected marks a state-transfer exchange the backend answered
// cleanly but negatively (a non-OK StateAck): the upstream session is
// still in sync and usable, the state just did not move.
var errStateRejected = errors.New("proxy: backend rejected state transfer")

// errStreamRefused marks a StreamOpen the backend answered with a clean
// refusal (unknown scheme, duplicate id, stream limit): the connection is
// intact, but failing over is pointless when the refusal is
// parameter-driven, so callers surface it like a handshake rejection.
var errStreamRefused = errors.New("proxy: backend refused stream open")

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

// stripMux removes the stream-id prefix from a reply body and checks it
// answers the stream the request went out on.
func (u *upstream) stripMux(sid uint32, body []byte) ([]byte, error) {
	rsid, rest, err := trace.SplitStreamID(body)
	if err != nil {
		return nil, err
	}
	if rsid != sid {
		return nil, fmt.Errorf("proxy: backend %s answered on stream %d, want %d", u.b.addr, rsid, sid)
	}
	return rest, nil
}

// openStream opens stream sid on an upstream connection with one
// StreamOpen exchange. It returns the backend's raw StreamOpenOK body
// (aliasing u.in's buffer) so the caller can relay the verdict verbatim; a clean
// refusal wraps errStreamRefused, any other error means the connection
// may be desynchronized and should be dropped.
func (u *upstream) openStream(o trace.StreamOpen, timeout time.Duration) ([]byte, error) {
	body, err := trace.MarshalStreamOpen(o)
	if err != nil {
		return nil, err
	}
	ft, rbody, err := u.adminExchange(trace.FrameStreamOpen, body, timeout)
	if err != nil {
		return nil, err
	}
	if ft != trace.FrameStreamOpenOK {
		return nil, fmt.Errorf("proxy: backend %s answered stream-open with frame %#x", u.b.addr, byte(ft))
	}
	ok, err := trace.ParseStreamOpenOK(rbody)
	if err != nil {
		return nil, err
	}
	if ok.ID != o.ID {
		return nil, fmt.Errorf("proxy: backend %s acked stream %d, want %d", u.b.addr, ok.ID, o.ID)
	}
	if ok.Status != trace.StreamOK && ok.Status != trace.StreamRefused {
		// No gateway sends this; the verdict was damaged in transit and
		// whether the stream opened is unknown.
		return nil, fmt.Errorf("proxy: backend %s answered stream-open with status %d", u.b.addr, ok.Status)
	}
	if ok.Status != trace.StreamOK {
		return rbody, fmt.Errorf("%w: backend %s: %s", errStreamRefused, u.b.addr, ok.Msg)
	}
	if u.open == nil {
		u.open = make(map[uint32]bool)
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
	if ft != trace.FrameStreamClosed {
		return fmt.Errorf("proxy: backend %s answered stream-close with frame %#x", u.b.addr, byte(ft))
	}
	rsid, _, err := trace.ParseStreamClosed(rbody)
	if err != nil {
		return err
	}
	if rsid != sid {
		return fmt.Errorf("proxy: backend %s closed stream %d, want %d", u.b.addr, rsid, sid)
	}
	delete(u.open, sid)
	return nil
}

// pullSnapshot asks u's backend for one stream's codec state over a
// StateSnapshot admin exchange. It returns the state blob (copied, so it
// survives later exchanges) and the batch sequence it is current as of. A
// clean rejection wraps errStateRejected; any other error means the frame
// stream may be desynchronized and u should be dropped.
func (u *upstream) pullSnapshot(sid uint32, timeout time.Duration) (uint64, []byte, error) {
	ft, rbody, err := u.adminExchange(trace.FrameStateSnapshot, trace.AppendStreamID(nil, sid), timeout)
	if err != nil {
		return 0, nil, err
	}
	if ft != trace.FrameStateAck {
		return 0, nil, fmt.Errorf("proxy: backend %s answered snapshot with frame %#x", u.b.addr, byte(ft))
	}
	if rbody, err = u.stripMux(sid, rbody); err != nil {
		return 0, nil, err
	}
	status, seq, payload, err := trace.ParseStateAck(rbody)
	if err != nil {
		return 0, nil, err
	}
	if status != trace.StateOK {
		return 0, nil, fmt.Errorf("%w: backend %s: %s", errStateRejected, u.b.addr, payload)
	}
	return seq, append([]byte(nil), payload...), nil
}

// restoreState installs a pulled codec state into one stream of u's
// backend session over a StateRestore admin exchange. The backend acks
// with the echoed sequence on success; a rejection wraps errStateRejected
// and leaves the backend stream freshly reset.
func (u *upstream) restoreState(sid uint32, seq uint64, state []byte, timeout time.Duration) error {
	body := append(trace.AppendStreamID(nil, sid), trace.MarshalStateRestore(seq, state)...)
	ft, rbody, err := u.adminExchange(trace.FrameStateRestore, body, timeout)
	if err != nil {
		return err
	}
	if ft != trace.FrameStateAck {
		return fmt.Errorf("proxy: backend %s answered restore with frame %#x", u.b.addr, byte(ft))
	}
	if rbody, err = u.stripMux(sid, rbody); err != nil {
		return err
	}
	status, aseq, payload, err := trace.ParseStateAck(rbody)
	if err != nil {
		return err
	}
	if status != trace.StateOK {
		return fmt.Errorf("%w: backend %s: %s", errStateRejected, u.b.addr, payload)
	}
	if aseq != seq {
		return fmt.Errorf("proxy: backend %s acked restore at sequence %d, want %d", u.b.addr, aseq, seq)
	}
	return nil
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
