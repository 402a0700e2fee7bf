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
// on the stream-id prefix and routes every stream independently.
type session struct {
	p    *Proxy
	id   uint64
	conn net.Conn
	// in reads the Hello and every later client frame under the idle
	// deadline; a relayed batch frame goes upstream straight from its
	// buffer.
	in  serve.Reader
	log *slog.Logger
	// wbuf frames the proxy's own replies to the client (errors,
	// conversions, stream verdicts); relayed backend frames go out
	// straight from the upstream's read buffer.
	wbuf []byte

	// hello is the client's Hello, stream 0's parameters; every upstream
	// connection replays it when dialing, whichever stream triggered the
	// dial, so frame bodies relay verbatim with their stream-id prefix.
	hello trace.Hello

	// streams routes stream ids to their relay state.
	streams map[uint32]*pstream

	// ups holds this session's live upstream connections, one per
	// backend, each carrying any subset of the session's streams (tracked
	// per-connection in upstream.open).
	ups map[*backend]*upstream

	// traceID is the current batch's end-to-end trace id; span is its
	// relay-leg record — frame_read,
	// backend_exchange, frame_write — fed to the proxy's /debug/trace
	// ring. Both are owned by the session goroutine.
	traceID uint64
	span    obs.Span
}

// Serve drives the session: handshake, then the relay loop.
func (ss *session) Serve() {
	defer ss.conn.Close()
	defer ss.closeUpstreams()
	defer ss.teardownStreams()
	ss.log = ss.p.log.With("session", ss.id, "remote", ss.conn.RemoteAddr().String())
	if err := ss.handshake(); err != nil {
		ss.log.Warn("handshake failed", "err", err)
		return
	}
	ss.log.Info("session open", "scheme", ss.hello.Scheme, "pinned", ss.streams[0].pinned)
	ss.readLoop()
	var batches uint64
	for _, st := range ss.streams {
		batches += st.batches
	}
	ss.log.Info("session closed", "batches", batches, "streams", len(ss.streams))
}

// newStream builds the relay state for one logical stream; registerStream
// wires it into the routing table and the stream gauges.
func (ss *session) newStream(sid uint32, schemeName string, txnSize int) *pstream {
	st := &pstream{
		ss:         ss,
		sid:        sid,
		schemeName: schemeName,
		txnSize:    txnSize,
		pinned:     scheme.DecodeStateful(schemeName),
		readH:      ss.p.met.stages.Hist(schemeName, obs.StageFrameRead),
		backH:      ss.p.met.stages.Hist(schemeName, obs.StageBackend),
		writeH:     ss.p.met.stages.Hist(schemeName, obs.StageFrameWrite),
	}
	st.snapshottable = st.pinned && scheme.Snapshottable(schemeName)
	return st
}

func (ss *session) registerStream(st *pstream) {
	ss.streams[st.sid] = st
	ss.p.met.streamsOpen.Add(1)
	ss.p.met.streamsTotal.Add(1)
}

// forgetStream unregisters a stream and releases its routing state.
func (ss *session) forgetStream(st *pstream) {
	delete(ss.streams, st.sid)
	st.unpin()
	ss.p.met.streamsOpen.Add(-1)
}

// teardownStreams releases every stream's pin and gauge at session end.
func (ss *session) teardownStreams() {
	for _, st := range ss.streams {
		st.unpin()
		ss.p.met.streamsOpen.Add(-1)
	}
	ss.streams = nil
}

// handshake reads the client Hello, opens the first upstream (which also
// validates the scheme and transaction size against a real backend), and
// answers HelloOK with the backend's MetaBits and BatchLimit. Any failure,
// a Hello the host's check refuses included, is answered with an Error
// frame before the connection closes.
func (ss *session) handshake() error {
	h, err := ss.in.Hello()
	if err != nil {
		ss.writeFrame(trace.FrameError, []byte(err.Error()))
		return err
	}
	ss.hello = h
	ss.streams = make(map[uint32]*pstream)
	st := ss.newStream(0, h.Scheme, h.TxnSize)
	ss.registerStream(st)
	u, _, err := st.acquireUpstream()
	if err != nil {
		ss.writeFrame(trace.FrameError, []byte(err.Error()))
		return err
	}
	okBody := trace.MarshalHelloOK(trace.HelloOK{
		Version:    trace.ProtocolVersion,
		MetaBits:   u.ok.MetaBits,
		BatchLimit: u.ok.BatchLimit,
	})
	return ss.writeFrame(trace.FrameHelloOK, okBody)
}

// readLoop consumes client frames until the client closes, a protocol
// error occurs, or the proxy starts draining (which fires the read
// deadline).
func (ss *session) readLoop() {
	for {
		ft, body, readStart, err := ss.in.Next()
		if err != nil {
			if err != serve.ErrEnd {
				ss.writeFrame(trace.FrameError, []byte(err.Error()))
			}
			return
		}
		switch {
		case ft == trace.FrameBatch:
			// dispatchBatch observes frame_read so the sample can carry
			// the batch's trace id once the envelope is open.
			if ss.dispatchBatch(body, time.Since(readStart)) {
				return
			}
		case ft == trace.FrameStreamOpen:
			if ss.handleStreamOpen(body) {
				return
			}
		case ft == trace.FrameStreamClose:
			if ss.handleStreamClose(body) {
				return
			}
		default:
			ss.writeFrame(trace.FrameError, []byte(fmt.Sprintf("proxy: unexpected frame type %#x", byte(ft))))
			return
		}
	}
}

// dispatchBatch routes one Batch frame to the stream its body leads with;
// a batch for an unknown stream re-announces StreamClosed, mirroring the
// gateway, so a client racing a stream kill loses only that stream while
// its siblings keep serving.
func (ss *session) dispatchBatch(body []byte, readDur time.Duration) (fatal bool) {
	sid, interior, err := trace.SplitStreamID(body)
	if err != nil {
		ss.writeFrame(trace.FrameError, []byte(err.Error()))
		return true
	}
	st := ss.streams[sid]
	if st == nil {
		return ss.writeFrame(trace.FrameStreamClosed, trace.MarshalStreamClosed(sid, "unknown stream")) != nil
	}
	return st.handleBatch(ss.in.Frame(), interior, readDur)
}

// handleStreamOpen opens one additional logical stream: validate it
// locally, route it to a backend so the scheme and transaction size are
// checked where the stream will actually serve, and relay the backend's
// StreamOpenOK verdict — metadata width and batch limit included —
// verbatim to the client.
func (ss *session) handleStreamOpen(body []byte) (fatal bool) {
	o, err := trace.ParseStreamOpen(body)
	if err != nil {
		ss.writeFrame(trace.FrameError, []byte(err.Error()))
		return true
	}
	refuse := func(msg string) bool {
		ss.p.met.streamRefused.Add(1)
		ok := trace.StreamOpenOK{ID: o.ID, Status: trace.StreamRefused, Msg: msg}
		return ss.writeFrame(trace.FrameStreamOpenOK, trace.MarshalStreamOpenOK(ok)) != nil
	}
	if ss.streams[o.ID] != nil {
		return refuse(fmt.Sprintf("stream %d already open", o.ID))
	}
	if len(ss.streams) >= ss.p.cfg.StreamLimit {
		return refuse(fmt.Sprintf("stream limit %d reached", ss.p.cfg.StreamLimit))
	}
	st := ss.newStream(o.ID, o.Scheme, o.TxnSize)
	ss.registerStream(st)
	if _, _, err := st.acquireUpstream(); err != nil {
		ss.forgetStream(st)
		if errors.Is(err, errStreamRefused) && st.openOK != nil {
			// Relay the backend's own refusal byte-for-byte.
			ss.p.met.streamRefused.Add(1)
			return ss.writeFrame(trace.FrameStreamOpenOK, st.openOK) != nil
		}
		return refuse("proxy: " + err.Error())
	}
	ss.log.Info("stream open", "stream", o.ID, "scheme", o.Scheme, "pinned", st.pinned)
	fatal = ss.writeFrame(trace.FrameStreamOpenOK, st.openOK) != nil
	st.openOK = nil
	st.accepted = true
	return fatal
}

// handleStreamClose retires one stream: the close propagates to every
// upstream connection the stream is open on — keeping the serial exchange
// discipline on each — before the StreamClosed acknowledgement goes back
// to the client.
func (ss *session) handleStreamClose(body []byte) (fatal bool) {
	sid, err := trace.ParseStreamClose(body)
	if err != nil {
		ss.writeFrame(trace.FrameError, []byte(err.Error()))
		return true
	}
	st := ss.streams[sid]
	if st == nil {
		ss.writeFrame(trace.FrameError, []byte(fmt.Sprintf("close for unknown stream %d", sid)))
		return true
	}
	for b, u := range ss.ups {
		if st.sid != 0 && !u.open[st.sid] {
			continue
		}
		if err := u.closeStream(st.sid, ss.p.cfg.ExchangeTimeout); err != nil {
			// The connection may be desynchronized mid-exchange; drop it
			// and let its other streams redial on their next batch.
			ss.log.Debug("upstream stream close failed", "backend", b.addr, "stream", st.sid, "err", err)
			ss.dropUpstream(b)
		}
	}
	ss.forgetStream(st)
	ss.log.Info("stream closed", "stream", st.sid, "batches", st.batches)
	return ss.writeFrame(trace.FrameStreamClosed, trace.MarshalStreamClosed(sid, "")) != nil
}

// dropUpstream closes and forgets this session's upstream on b.
func (ss *session) dropUpstream(b *backend) {
	if u := ss.ups[b]; u != nil {
		u.close()
		delete(ss.ups, b)
	}
}

// closeUpstreams closes every upstream connection at session end.
func (ss *session) closeUpstreams() {
	for _, u := range ss.ups {
		u.close()
	}
	ss.ups = nil
}

// writeFrame frames body as a t frame and writes it to the client.
func (ss *session) writeFrame(ft trace.FrameType, body []byte) error {
	frame, err := trace.AppendFrame(ss.wbuf[:0], ft, body)
	ss.wbuf = frame[:0]
	if err != nil {
		return err
	}
	return ss.relay(frame)
}

// relay writes one whole frame, header included, to the client in one
// Write under the write deadline.
func (ss *session) relay(frame []byte) error {
	ss.conn.SetWriteDeadline(time.Now().Add(ss.p.cfg.WriteTimeout))
	_, err := ss.conn.Write(frame)
	return err
}
