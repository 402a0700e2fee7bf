package proxy

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/serve"
	"github.com/hpca18/bxt/internal/trace"
)

// errNoBackend means every configured backend is ejected or unreachable.
var errNoBackend = errors.New("proxy: no healthy backend")

// errPinLost means a pinned stream's backend was ejected before this
// batch reached it, so the upstream codec state is gone and the client
// must reset before any batch lands on the replacement pin.
var errPinLost = errors.New("pinned backend ejected, upstream codec state lost")

// session is one client connection being relayed: the client-facing
// socket and the logical streams being routed. The session demultiplexes
// on the stream-id prefix and routes every stream independently, on one
// goroutine.
type session struct {
	p    *Proxy
	id   uint64
	conn net.Conn
	// in reads the Hello and every later client frame under the idle
	// deadline; a relayed batch frame goes upstream straight from its
	// buffer. w writes every frame to the client: the proxy's own replies
	// (errors, conversions, stream verdicts) and the relayed backend
	// frames, which go out straight from the backend connection's read
	// buffer.
	in  serve.Reader
	w   *serve.Writer
	log *slog.Logger

	// hello is the client's Hello, stream 0's parameters; every backend
	// connection replays it when dialing, whichever stream triggered the
	// dial, so frame bodies relay verbatim with their stream-id prefix.
	hello trace.Hello

	// streams routes stream ids to their relay state.
	streams *serve.Streams[*pstream]

	// ups holds this session's backend connections, one client.Mux per
	// backend. Each relayed stream is a client.Session on it under the
	// client's own stream id (pstream.legs), so the mux hands every answer
	// to the stream it names. wbuf frames the proxy's own requests.
	ups  map[*backend]*client.Mux
	wbuf []byte
}

// Writer returns the session's client-leg frame writer.
func (ss *session) Writer() *serve.Writer { return ss.w }

// Serve drives the session: handshake, then the relay loop.
func (ss *session) Serve() {
	defer ss.conn.Close()
	defer ss.streams.Teardown()
	defer ss.release()
	if err := ss.handshake(); err != nil {
		ss.log.Warn("handshake failed", "err", err)
		ss.w.Refuse(err)
		return
	}
	st0, _ := ss.streams.Get(0)
	ss.log.Info("session open", "scheme", ss.hello.Scheme, "pinned", st0.pinned)
	// Frames are relayed until the client closes, a protocol error
	// occurs, or the proxy starts draining (which fires the read
	// deadline).
	ss.streams.Serve(&ss.in, ss.dispatch)
	var batches uint64
	ss.streams.Each(func(st *pstream) { batches += st.batches })
	ss.log.Info("session closed", "batches", batches, "streams", ss.streams.Len())
}

// newStream builds the relay state for one logical stream.
func (ss *session) newStream(sid uint32, schemeName string, txnSize int) *pstream {
	st := &pstream{
		ss:         ss,
		sid:        sid,
		schemeName: schemeName,
		txnSize:    txnSize,
		pinned:     scheme.DecodeStateful(schemeName),
		legs:       make(map[*backend]*client.Session),
		stages:     ss.p.met.stages.Set(schemeName, obs.StageFrameRead, obs.StageBackend, obs.StageFrameWrite),
	}
	st.onAnswered, st.onWrote = st.answered, st.wrote
	st.snapshottable = st.pinned && scheme.Snapshottable(schemeName)
	return st
}

// handshake reads the client Hello, dials the first backend (which also
// validates the scheme and transaction size against a real backend), and
// answers HelloOK with the backend's MetaBits and BatchLimit. Serve
// answers any failure, a Hello the host's check refuses included, with an
// Error frame before the connection closes.
func (ss *session) handshake() error {
	h, err := ss.in.Hello()
	if err != nil {
		return err
	}
	ss.hello = h
	st := ss.newStream(0, h.Scheme, h.TxnSize)
	ss.streams.Add(0, st)
	// Stream 0 runs the Hello's parameters, so its leg is the backend
	// connection's own stream 0, whose geometry the backend's HelloOK set.
	leg, _, err := st.acquireUpstream()
	if err != nil {
		return err
	}
	okBody := trace.MarshalHelloOK(trace.HelloOK{
		Version:    trace.ProtocolVersion,
		MetaBits:   leg.MetaBits(),
		BatchLimit: leg.BatchLimit(),
	})
	return ss.w.Send(trace.FrameHelloOK, okBody)
}

// dispatch serves one client frame other than a stream open or close: a
// Batch frame relays on the stream its body leads with.
func (ss *session) dispatch(ft trace.FrameType, body []byte, readStart time.Time) error {
	if ft != trace.FrameBatch {
		return fmt.Errorf("proxy: unexpected frame type %#x", byte(ft))
	}
	st, interior, ok, err := ss.streams.Route(body)
	if !ok {
		return err
	}
	// handleBatch writes frame_read into the batch's span, whose trace id
	// the envelope supplies.
	return st.handleBatch(ss.in.Frame(), interior, time.Since(readStart))
}

// openStream opens one additional logical stream: it routes the stream to
// a backend, so the scheme and transaction size are checked where the
// stream will actually serve, and answers with the backend's StreamOpenOK
// verdict — metadata width and batch limit included — verbatim.
func (ss *session) openStream(o trace.StreamOpen) (*pstream, []byte, error) {
	st := ss.newStream(o.ID, o.Scheme, o.TxnSize)
	if _, _, err := st.acquireUpstream(); err != nil {
		st.unpin()
		if errors.Is(err, errRefused) && st.openOK != nil {
			// Relay the backend's own refusal byte-for-byte.
			return nil, st.openOK, err
		}
		return nil, nil, err
	}
	ss.log.Info("stream open", "stream", o.ID, "scheme", o.Scheme, "pinned", st.pinned)
	ok := st.openOK
	st.openOK = nil
	return st, ok, nil
}

// closeStream retires one stream the client closed: the close propagates
// to every backend the stream is open on, one StreamClose exchange each,
// before the StreamClosed acknowledgement goes back to the client.
func (ss *session) closeStream(st *pstream) {
	for b, leg := range st.legs {
		if err := st.closeOn(leg, b); err != nil {
			// The connection may be out of step; drop it and let its
			// other streams redial on their next batch.
			ss.log.Debug("upstream stream close failed", "backend", b.addr, "stream", st.sid, "err", err)
			ss.dropUpstream(b)
			continue
		}
		leg.Close()
	}
	st.unpin()
	ss.log.Info("stream closed", "stream", st.sid, "batches", st.batches)
}

// dial connects this session to b: one client.Mux, whose Hello is the
// client's and opens stream 0 there. That stream is the leg of the
// client's stream 0 when it runs the Hello's parameters: st itself when st
// is a stream 0 the client is re-opening, not yet in the table. A refused
// Hello wraps errRefused. A handshake that fails otherwise, short of its
// timeout, is tried once more on a fresh connection: a Hello or HelloOK
// damaged in transit fails its seal, and a fresh connection does not
// repeat the damage. One that times out is not, so a backend that never
// answers costs one DialTimeout.
func (ss *session) dial(b *backend, st *pstream) error {
	var m *client.Mux
	var s0 *client.Session
	for try := 0; ; try++ {
		var err error
		m, _ = client.NewMux(b.addr, ss.p.leg)
		if s0, err = m.Open(ss.hello.Scheme, ss.hello.TxnSize); err == nil {
			break
		}
		m.Close()
		if errors.Is(err, client.ErrServer) && !errors.Is(err, trace.ErrBadFrame) {
			return fmt.Errorf("%w %s: %v", errRefused, b.addr, err)
		}
		var ne net.Error
		if try > 0 || errors.As(err, &ne) && ne.Timeout() {
			// A damaged HelloOK is a failure of b, not the backend ending
			// the connection: drop client.ErrServer from the chain.
			return fmt.Errorf("proxy: backend %s: %v", b.addr, err)
		}
	}
	ss.ups[b] = m
	st0 := st
	if st.sid != 0 {
		st0, _ = ss.streams.Get(0)
	}
	if st0 != nil && st0.schemeName == ss.hello.Scheme && st0.txnSize == ss.hello.TxnSize {
		st0.legs[b] = s0
		if st0 == st {
			// The Hello opened this stream afresh: its HelloOK is the
			// verdict a re-open of stream 0 relays.
			st.openOK = trace.MarshalStreamOpenOK(trace.StreamOpenOK{ID: 0, Status: trace.StreamOK, MetaBits: s0.MetaBits(), BatchLimit: s0.BatchLimit()})
		}
	}
	return nil
}

// request frames body as a t frame and exchanges it on leg within timeout,
// returning the answer's type and body, valid until leg's next request or
// Release.
func (ss *session) request(leg *client.Session, t trace.FrameType, body []byte, timeout time.Duration) (trace.FrameType, []byte, error) {
	frame, err := trace.AppendFrame(ss.wbuf[:0], t, body)
	ss.wbuf = frame[:0]
	if err != nil {
		return 0, nil, err
	}
	ft, rbody, _, err := leg.Exchange(frame, timeout)
	return ft, rbody, err
}

// dropUpstream closes and forgets this session's connection to b, and
// with it every stream's leg there.
func (ss *session) dropUpstream(b *backend) {
	if m := ss.ups[b]; m != nil {
		m.Close()
		delete(ss.ups, b)
		ss.streams.Each(func(st *pstream) { delete(st.legs, b) })
	}
}

// release frees what the session holds when it ends: every stream's pin
// and every backend connection.
func (ss *session) release() {
	ss.streams.Each(func(st *pstream) { st.unpin() })
	for _, m := range ss.ups {
		m.Close()
	}
	ss.ups = nil
}
