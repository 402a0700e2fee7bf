// Stream-granular fault injection for protocol-v4 multiplexed
// connections. The byte-level conn wrapper models a flaky wire; this one
// models a buggy demux tier: whole v4 Batch frames vanish (stream-drop)
// or get their stream-id prefix rewritten onto a sibling stream
// (stream-interleave), while every surrounding frame stays byte-perfect.
// The receiving peer must fail exactly one stream — a BatchError or a
// stream kill — and keep serving its siblings on the same connection.
package faults

import (
	"encoding/binary"
	"net"
	"sync"

	"github.com/hpca18/bxt/internal/trace"
)

// WrapStreamConn returns c with the injector's stream faults applied to
// the write side. The wrapper reassembles the written byte stream into
// BXTP frames, so faults land on whole v4 Batch frames regardless of how
// the writer coalesces or splits them across Write calls; all other frame
// types pass through untouched. The connection must speak protocol v4 or
// later — on earlier revisions a Batch body does not lead with a stream id
// and interleave would corrupt it.
func (in *Injector) WrapStreamConn(c net.Conn) net.Conn {
	return &streamConn{Conn: c, in: in}
}

// streamConn is the frame-aware fault-injecting wrapper.
type streamConn struct {
	net.Conn
	in *Injector

	wmu sync.Mutex
	// pend carries bytes of a frame still incomplete after the last
	// Write; out is the scratch the rewritten stream is assembled in.
	pend []byte
	out  []byte
	// lastSID remembers the previous Batch frame's stream id — the
	// misrouting target the next interleaved frame is relabeled with.
	lastSID  uint32
	haveLast bool
}

// frameHeader is the wire prefix: uint32 length (type byte + body), then
// the type byte itself.
const frameHeader = 4 + 1

func (c *streamConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pend = append(c.pend, p...)
	c.out = c.out[:0]
	for {
		if len(c.pend) < frameHeader {
			break
		}
		n := int(binary.LittleEndian.Uint32(c.pend[:4]))
		if n < 1 || n > trace.MaxFrameBytes {
			// Not a sane frame boundary (mid-stream garbage or a
			// non-BXTP writer): stop parsing and pass everything through
			// verbatim from here on.
			c.out = append(c.out, c.pend...)
			c.pend = c.pend[:0]
			break
		}
		total := 4 + n
		if len(c.pend) < total {
			break
		}
		frame := c.pend[:total]
		ft := trace.FrameType(frame[4])
		body := frame[frameHeader:]
		if ft != trace.FrameBatch || len(body) < 4 {
			c.out = append(c.out, frame...)
			c.pend = c.pend[total:]
			continue
		}
		sid := binary.LittleEndian.Uint32(body[:4])
		targeted := c.in.cfg.StreamTarget <= 0 || sid == uint32(c.in.cfg.StreamTarget)
		switch {
		case targeted && c.in.roll(c.in.cfg.StreamDropRate):
			// The whole batch frame vanishes; the stream's client sees
			// silence, its siblings see nothing at all.
			c.in.streamDropped.Add(1)
		default:
			at := len(c.out)
			c.out = append(c.out, frame...)
			if targeted && c.haveLast && c.lastSID != sid && c.in.roll(c.in.cfg.StreamInterleaveRate) {
				// Relabel the frame onto the previous batch's stream: the
				// interior (CRC-clean, the id sits outside the envelope)
				// now lands on the wrong server-side codec.
				c.in.streamInterleaved.Add(1)
				binary.LittleEndian.PutUint32(c.out[at+frameHeader:], c.lastSID)
			}
		}
		c.lastSID, c.haveLast = sid, true
		c.pend = c.pend[total:]
	}
	if len(c.out) > 0 {
		if _, err := c.Conn.Write(c.out); err != nil {
			return 0, err
		}
	}
	// Every caller byte was consumed (buffered, forwarded, or dropped).
	return len(p), nil
}
