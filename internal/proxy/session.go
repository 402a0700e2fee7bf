package proxy

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

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
	// frames, which go out straight from the upstream's read buffer.
	in  serve.Reader
	w   *serve.Writer
	log *slog.Logger

	// hello is the client's Hello, stream 0's parameters; every upstream
	// connection replays it when dialing, whichever stream triggered the
	// dial, so frame bodies relay verbatim with their stream-id prefix.
	hello trace.Hello

	// streams routes stream ids to their relay state.
	streams *serve.Streams[*pstream]

	// ups holds this session's live upstream connections, one per
	// backend, each carrying any subset of the session's streams (tracked
	// per-connection in upstream.open).
	ups map[*backend]*upstream
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
		ss.w.Send(trace.FrameError, []byte(err.Error()))
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
		stages:     ss.p.met.stages.Set(schemeName, obs.StageFrameRead, obs.StageBackend, obs.StageFrameWrite),
	}
	st.onAnswered, st.onWrote = st.answered, st.wrote
	st.snapshottable = st.pinned && scheme.Snapshottable(schemeName)
	return st
}

// handshake reads the client Hello, opens the first upstream (which also
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
	u, _, err := st.acquireUpstream()
	if err != nil {
		return err
	}
	okBody := trace.MarshalHelloOK(trace.HelloOK{
		Version:    trace.ProtocolVersion,
		MetaBits:   u.ok.MetaBits,
		BatchLimit: u.ok.BatchLimit,
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
	st.openOK, st.accepted = nil, true
	return st, ok, nil
}

// closeStream retires one stream the client closed: the close propagates
// to every upstream connection the stream is open on — keeping the serial
// exchange discipline on each — before the StreamClosed acknowledgement
// goes back to the client.
func (ss *session) closeStream(st *pstream) {
	for b, u := range ss.ups {
		if !u.open[st.sid] {
			continue
		}
		if err := u.closeStream(st.sid, ss.p.cfg.ExchangeTimeout); err != nil {
			// The connection may be desynchronized mid-exchange; drop it
			// and let its other streams redial on their next batch.
			ss.log.Debug("upstream stream close failed", "backend", b.addr, "stream", st.sid, "err", err)
			ss.dropUpstream(b)
		}
	}
	st.unpin()
	ss.log.Info("stream closed", "stream", st.sid, "batches", st.batches)
}

// dropUpstream closes and forgets this session's upstream on b.
func (ss *session) dropUpstream(b *backend) {
	if u := ss.ups[b]; u != nil {
		u.close()
		delete(ss.ups, b)
	}
}

// release frees what the session holds when it ends: every stream's pin
// and every upstream connection.
func (ss *session) release() {
	ss.streams.Each(func(st *pstream) { st.unpin() })
	for _, u := range ss.ups {
		u.close()
	}
	ss.ups = nil
}
