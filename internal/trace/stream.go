// Streaming framing for the trace wire format.
//
// The on-disk trace format (trace.go) is one header followed by back-to-back
// records; a network peer additionally needs message boundaries, a session
// handshake and per-batch results. This file defines that layer — the bxtd
// protocol ("BXTP") — as length-prefixed frames.
//
// Frame layout (all integers little-endian):
//
//	uint32 length | byte type | body[length-1]
//
// A session opens with Hello (scheme name + transaction size), the server
// answers HelloOK (negotiated metadata width + batch limit), and the client
// then streams Batch frames, each answered by a BatchReply (BatchStats +
// count encoded records, every record carrying the encoded payload plus
// the scheme's side-band metadata bytes). A Batch body is columnar: the
// uint32 count, then the count addresses, the count kinds, and the count
// payloads back to back, so the payloads reach a batch kernel as the one
// contiguous block it encodes, where the frame landed. Errors travel as
// Error frames with a UTF-8 message and terminate the session.
//
// The handshake frames — Hello, HelloOK, StreamOpen and StreamOpenOK — end
// in a seal, the CRC-32C of the body ahead of it, checked before any field
// is acted on. A frame that fails its seal was damaged in transit: it is a
// connection fault (ErrCRC), never a refusal.
//
// There is one protocol revision, ProtocolVersion (5); a peer answers a
// Hello naming any other revision with an Error frame and closes. A future
// change to the wire format is a version bump with new golden vectors
// (testdata/), not a negotiated variant.
//
// Every post-handshake frame body leads with a uint32 stream id (mux.go):
// many logical sessions share one connection, each an independent
// (scheme, transaction size) context with its own codec state and
// batch-id space.
//
// Batch and BatchReply bodies carry the batch envelope after the stream
// id — uint64 batch id, a uint32 CRC-32C of everything after the CRC
// field, then a uint64 trace id — so a retrying client can match replies
// to attempts (never applying one twice), either side can detect payload
// corruption without trusting the transport, and one trace id, assigned
// by the client and echoed by the gateway, correlates the client, proxy
// and backend spans of a batch on their /debug/trace surfaces. Two
// server-to-client frames report batch outcomes without ending the
// session: Busy (batch id + retry-after hint) sheds a batch under overload
// without processing it, and BatchError (batch id + flags + message)
// reports one failed batch; bit 0 of the flags byte tells the client the
// server reset the stream codec's inter-transaction state, so the client
// must reset its decoder before decoding later replies.
//
// State-transfer admin frames move a decode-stateful stream codec between
// backends without resetting the client's decoder. StateSnapshot (empty
// body past the stream id) asks the gateway to serialize the stream
// codec's complete decode state at the current batch boundary; the gateway
// answers StateAck carrying a status byte, the count of batches the state
// is current as of (so the receiver knows exactly where to resume), and —
// on success — the state blob itself. The blob is opaque at this layer:
// each codec frames its own sections with versioned magic + CRC-32C
// trailers (internal/snap), so damage is detected on restore, not trusted.
// StateRestore (uint64 sequence + blob) installs such a snapshot into a
// stream before its next batch and is answered by a StateAck echoing the
// sequence with an empty payload; a non-zero status means the state was
// rejected and the stream codec remains in its freshly-reset state, never
// half-restored.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"time"
)

// FrameType identifies a protocol frame.
type FrameType uint8

// Protocol frame types.
const (
	FrameHello FrameType = 0x01
	FrameBatch FrameType = 0x02
	// FrameStateSnapshot asks the gateway to serialize the session
	// codec's decode state at the current batch boundary. Empty body; the
	// answer is a StateAck.
	FrameStateSnapshot FrameType = 0x03
	// FrameStateRestore installs a snapshotted codec state into the
	// session before its next batch. Body: uint64 sequence + state blob.
	FrameStateRestore FrameType = 0x04
	FrameHelloOK      FrameType = 0x81
	FrameBatchReply   FrameType = 0x82
	// FrameBusy sheds one batch under overload: the server did not
	// process it and the client should retry after the carried hint.
	FrameBusy FrameType = 0x83
	// FrameBatchError reports one failed batch without closing the
	// session.
	FrameBatchError FrameType = 0x84
	// FrameStateAck answers StateSnapshot and StateRestore. Body:
	// uint8 status + uint64 sequence + payload (the state blob on a
	// successful snapshot, a UTF-8 message on failure, empty otherwise).
	FrameStateAck FrameType = 0x85
	FrameError    FrameType = 0xFF
)

// Protocol limits and identifiers.
const (
	// ProtocolMagic opens every Hello body.
	ProtocolMagic = "BXTP"
	// ProtocolVersion is the protocol revision every peer speaks.
	ProtocolVersion = 5
	// MaxFrameBytes bounds a frame body so a corrupt or hostile length
	// prefix cannot drive unbounded allocation.
	MaxFrameBytes = 1 << 24
	// MaxTxnBytes bounds the negotiated transaction size, on the wire and
	// in trace files alike.
	MaxTxnBytes = 1 << 12
	// batchColumnBytes is one transaction's share of a Batch body's
	// address (8) and kind (1) columns.
	batchColumnBytes = 9
	// sealBytes is the handshake seal: the CRC-32C of the body ahead of
	// it.
	sealBytes = 4
	// batchEnvelopeBytes is the sealed part of the Batch/BatchReply
	// envelope: uint64 batch id + uint32 CRC-32C of everything after the
	// CRC field.
	batchEnvelopeBytes = 8 + 4
	// traceEnvelopeBytes is the uint64 trace id that follows the CRC
	// field, so the envelope checksum covers it.
	traceEnvelopeBytes = 8
)

// ErrBadFrame reports a malformed protocol frame or message body.
var ErrBadFrame = errors.New("trace: malformed protocol frame")

// ErrCRC reports a batch envelope whose payload CRC does not match:
// the frame arrived intact at the framing layer but its content was
// corrupted in transit. ErrCRC wraps ErrBadFrame, so errors.Is works for
// either sentinel.
var ErrCRC = fmt.Errorf("%w: payload crc mismatch", ErrBadFrame)

// ErrVersion reports a Hello naming a protocol revision other than
// ProtocolVersion. It does not wrap ErrBadFrame: the frame is whole, and
// the peer is told which revision it named.
var ErrVersion = errors.New("unsupported protocol version")

// castagnoli is the CRC-32C table used by the batch envelope and the
// handshake seal.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seal appends the handshake seal of body to it.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// unseal checks the seal ending a what frame's body and returns the body
// ahead of it. A body that fails it reports ErrCRC.
func unseal(body []byte, what string) ([]byte, error) {
	if len(body) < sealBytes {
		return nil, fmt.Errorf("%w: %d-byte %s body has no seal", ErrCRC, len(body), what)
	}
	n := len(body) - sealBytes
	if got, want := crc32.Checksum(body[:n], castagnoli), binary.LittleEndian.Uint32(body[n:]); got != want {
		return nil, fmt.Errorf("%w: %s body sums to %#x, its seal claims %#x", ErrCRC, what, got, want)
	}
	return body[:n], nil
}

// AppendTraceEnvelope appends the batch envelope prefix to dst: the batch
// id, a zero CRC placeholder and the trace id. The caller appends the
// payload and then calls SealBatchEnvelope on the complete body, which
// stamps a CRC covering the trace id and payload.
func AppendTraceEnvelope(dst []byte, id, traceID uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, 0, 0, 0, 0)
	return binary.LittleEndian.AppendUint64(dst, traceID)
}

// SealBatchEnvelope stamps the CRC-32C of body's payload (everything after
// the CRC field) into the envelope written by AppendTraceEnvelope.
func SealBatchEnvelope(body []byte) error {
	if len(body) < batchEnvelopeBytes {
		return fmt.Errorf("%w: %d-byte body has no batch envelope", ErrBadFrame, len(body))
	}
	crc := crc32.Checksum(body[batchEnvelopeBytes:], castagnoli)
	binary.LittleEndian.PutUint32(body[8:batchEnvelopeBytes], crc)
	return nil
}

// OpenTraceEnvelope splits a Batch or BatchReply body (past its stream
// id) into its batch id, trace id and payload, verifying the CRC. On a CRC
// mismatch it still returns the carried batch id (best effort — the id
// bytes may themselves be corrupt) together with ErrCRC, so the receiver
// can answer the right attempt; the trace id is not returned, since the
// checksum that vouches for it failed.
func OpenTraceEnvelope(body []byte) (id, traceID uint64, payload []byte, err error) {
	if len(body) < batchEnvelopeBytes {
		return 0, 0, nil, fmt.Errorf("%w: %d-byte body is shorter than the batch envelope", ErrBadFrame, len(body))
	}
	id = binary.LittleEndian.Uint64(body[:8])
	want := binary.LittleEndian.Uint32(body[8:batchEnvelopeBytes])
	payload = body[batchEnvelopeBytes:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return id, 0, nil, fmt.Errorf("%w: got %#x, frame claims %#x", ErrCRC, got, want)
	}
	if len(payload) < traceEnvelopeBytes {
		return id, 0, nil, fmt.Errorf("%w: %d-byte envelope payload is shorter than the trace id", ErrBadFrame, len(payload))
	}
	traceID = binary.LittleEndian.Uint64(payload[:traceEnvelopeBytes])
	return id, traceID, payload[traceEnvelopeBytes:], nil
}

// MarshalBusy encodes a Busy frame body: the shed batch's id and a
// retry-after hint (rounded to milliseconds, capped at ~49 days).
func MarshalBusy(id uint64, retryAfter time.Duration) []byte {
	ms := retryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > math.MaxUint32 {
		ms = math.MaxUint32
	}
	body := binary.LittleEndian.AppendUint64(make([]byte, 0, 12), id)
	return binary.LittleEndian.AppendUint32(body, uint32(ms))
}

// ParseBusy decodes a Busy frame body.
func ParseBusy(body []byte) (id uint64, retryAfter time.Duration, err error) {
	if len(body) != 12 {
		return 0, 0, fmt.Errorf("%w: busy body %d bytes, want 12", ErrBadFrame, len(body))
	}
	id = binary.LittleEndian.Uint64(body[:8])
	ms := binary.LittleEndian.Uint32(body[8:12])
	return id, time.Duration(ms) * time.Millisecond, nil
}

// batchErrorReset is the BatchError flag bit reporting that the server
// reset the session codec's inter-transaction state.
const batchErrorReset = 1 << 0

// MarshalBatchError encodes a BatchError frame body: the failed batch's
// id, a flags byte, and a UTF-8 message.
func MarshalBatchError(id uint64, codecReset bool, msg string) []byte {
	body := binary.LittleEndian.AppendUint64(make([]byte, 0, 9+len(msg)), id)
	var flags byte
	if codecReset {
		flags |= batchErrorReset
	}
	body = append(body, flags)
	return append(body, msg...)
}

// ParseBatchError decodes a BatchError frame body.
func ParseBatchError(body []byte) (id uint64, codecReset bool, msg string, err error) {
	if len(body) < 9 {
		return 0, false, "", fmt.Errorf("%w: batch-error body %d bytes, want >= 9", ErrBadFrame, len(body))
	}
	id = binary.LittleEndian.Uint64(body[:8])
	return id, body[8]&batchErrorReset != 0, string(body[9:]), nil
}

// StateAck status codes.
const (
	// StateOK reports the snapshot or restore succeeded.
	StateOK uint8 = 0
	// StateUnsupported reports the session codec keeps no transferable
	// state: there is nothing to snapshot and a
	// restore is meaningless.
	StateUnsupported uint8 = 1
	// StateFailed reports the operation was attempted and rejected — a
	// damaged or mismatched blob on restore, or a serialization failure on
	// snapshot. After a failed restore the session codec is freshly reset,
	// never half-restored.
	StateFailed uint8 = 2
)

// MarshalStateRestore encodes a StateRestore frame body: the batch
// sequence the state is current as of, then the opaque state blob.
func MarshalStateRestore(seq uint64, state []byte) []byte {
	body := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(state)), seq)
	return append(body, state...)
}

// ParseStateRestore decodes a StateRestore frame body. The returned state
// aliases body.
func ParseStateRestore(body []byte) (seq uint64, state []byte, err error) {
	if len(body) < 8 {
		return 0, nil, fmt.Errorf("%w: state-restore body %d bytes, want >= 8", ErrBadFrame, len(body))
	}
	return binary.LittleEndian.Uint64(body[:8]), body[8:], nil
}

// MarshalStateAck encodes a StateAck frame body: status, the batch
// sequence the answer refers to, and the payload — the state blob when
// acknowledging a successful snapshot, a UTF-8 message on failure, empty
// otherwise.
func MarshalStateAck(status uint8, seq uint64, payload []byte) []byte {
	body := append(make([]byte, 0, 9+len(payload)), status)
	body = binary.LittleEndian.AppendUint64(body, seq)
	return append(body, payload...)
}

// ParseStateAck decodes a StateAck frame body. The returned payload
// aliases body.
func ParseStateAck(body []byte) (status uint8, seq uint64, payload []byte, err error) {
	if len(body) < 9 {
		return 0, 0, nil, fmt.Errorf("%w: state-ack body %d bytes, want >= 9", ErrBadFrame, len(body))
	}
	return body[0], binary.LittleEndian.Uint64(body[1:9]), body[9:], nil
}

// FrameHeaderBytes is the frame header: the uint32 length prefix and the
// type byte.
const FrameHeaderBytes = 5

// BeginFrame appends room for a frame header to dst. The caller appends the
// frame body after it and stamps the header with SealFrame, so the whole
// frame leaves in one Write and the body is never copied to be framed.
func BeginFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0) }

// SealFrame stamps the header of frame — which BeginFrame began, so its
// first FrameHeaderBytes are the header's room — with the frame's length
// and type t.
func SealFrame(frame []byte, t FrameType) error {
	if len(frame) < FrameHeaderBytes {
		return fmt.Errorf("%w: %d-byte frame has no header", ErrBadFrame, len(frame))
	}
	n := len(frame) - 4
	if n > MaxFrameBytes {
		return fmt.Errorf("%w: %d-byte body exceeds frame limit", ErrBadFrame, n-1)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	frame[4] = byte(t)
	return nil
}

// AppendFrame appends one whole frame (header, then body) to dst.
func AppendFrame(dst []byte, t FrameType, body []byte) ([]byte, error) {
	start := len(dst)
	dst = append(BeginFrame(dst), body...)
	return dst, SealFrame(dst[start:], t)
}

// WriteFrame writes one frame to w: its header, then its body. A
// connection that writes frame after frame builds each with
// BeginFrame/SealFrame instead and writes it in one call.
func WriteFrame(w io.Writer, t FrameType, body []byte) error {
	if len(body)+1 > MaxFrameBytes {
		return fmt.Errorf("%w: %d-byte body exceeds frame limit", ErrBadFrame, len(body))
	}
	hdr := make([]byte, FrameHeaderBytes)
	binary.LittleEndian.PutUint32(hdr, uint32(len(body)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame from r, reusing buf for the body when it has
// capacity. It returns the frame type and the body (valid until the next
// call when buf is reused). A clean close before the first header byte
// returns io.EOF; a truncated header or body, or an implausible length,
// returns an error wrapping ErrBadFrame. A connection that reads frame
// after frame should use a FrameReader, which reads them in place.
func ReadFrame(r io.Reader, buf []byte) (FrameType, []byte, error) {
	var hdr [4]byte
	_, err := io.ReadFull(r, hdr[:])
	n, err := frameLen(hdr[:], err)
	if err != nil {
		return 0, nil, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	frame := buf[:n]
	if _, err := io.ReadFull(r, frame); err != nil {
		return 0, nil, truncatedBody(err)
	}
	return FrameType(frame[0]), frame[1:], nil
}

// frameLen checks the outcome of reading a length prefix: io.EOF before
// the first byte is a clean close, any other read error a truncated
// frame, and the length must cover the type byte without exceeding
// MaxFrameBytes.
func frameLen(hdr []byte, err error) (int, error) {
	if err == io.EOF {
		return 0, io.EOF
	}
	if err != nil {
		return 0, fmt.Errorf("%w: truncated frame header: %w", ErrBadFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > MaxFrameBytes {
		return 0, fmt.Errorf("%w: implausible frame length %d", ErrBadFrame, n)
	}
	return int(n), nil
}

// truncatedBody wraps a read error that cut a frame body short.
func truncatedBody(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // what io.ReadFull reports
	}
	return fmt.Errorf("%w: truncated frame body: %w", ErrBadFrame, err)
}

// FrameReader reads the frames of one connection and parses them in
// place. It owns one read buffer, which starts Hello-sized and grows, at
// the first frame that does not fit, to max(16 KiB, 2 × that frame), so
// pipelined frames arrive several per Read; each frame is returned from
// where the Read put it. A frame over 1 MiB grows the buffer only as its
// bytes arrive, so a hostile length prefix costs no more memory than the
// bytes behind it. Errors match ReadFrame's. The zero value is ready for
// Reset; a FrameReader is not safe for concurrent use.
type FrameReader struct {
	r   io.Reader
	buf []byte
	// buf[off:end] is read but not yet returned; frame is the last frame
	// Next returned, header included.
	off, end int
	frame    []byte
	// err is the read error that ends the stream, returned once the bytes
	// read before it are used up.
	err error
}

const (
	// helloBufBytes is a FrameReader's first buffer: room for the largest
	// Hello (4+1+4+1+255+4 body bytes) and any handshake answer, so a
	// connection that never sends a batch never holds a batch-sized
	// buffer.
	helloBufBytes = 512
	// minFrameBufBytes floors a grown buffer, so small pipelined frames
	// still arrive many per Read.
	minFrameBufBytes = 16 << 10
	// eagerFrameBytes is the largest frame the buffer grows for in one
	// step; beyond it the buffer doubles each time it fills, up to the
	// frame plus eagerFrameBytes of room.
	eagerFrameBytes = 1 << 20
)

// Reset points fr at r, dropping anything read from its previous reader
// but keeping its buffer.
func (fr *FrameReader) Reset(r io.Reader) {
	*fr = FrameReader{r: r, buf: fr.buf}
}

// Next reads the next frame. The body — like Frame's whole frame — aliases
// fr's buffer and is valid until the following call to Next.
func (fr *FrameReader) Next() (FrameType, []byte, error) {
	fr.frame = nil
	if err := fr.fill(4); err != nil {
		if err == io.EOF && fr.end > fr.off {
			err = io.ErrUnexpectedEOF // what io.ReadFull reports
		}
		_, err = frameLen(nil, err)
		return 0, nil, err
	}
	n, err := frameLen(fr.buf[fr.off:fr.end], nil)
	if err != nil {
		return 0, nil, err
	}
	if err := fr.fill(4 + n); err != nil {
		return 0, nil, truncatedBody(err)
	}
	fr.frame = fr.buf[fr.off : fr.off+4+n : fr.off+4+n]
	fr.off += 4 + n
	return FrameType(fr.frame[4]), fr.frame[FrameHeaderBytes:], nil
}

// Frame returns the frame Next last returned, header included, for a peer
// that relays it verbatim; nil after an error.
func (fr *FrameReader) Frame() []byte { return fr.frame }

// Buffered returns the bytes read past the last frame Next returned: the
// whole frames Next will return without reading, then the start of any
// frame still arriving. It aliases fr's buffer, like Next's bodies.
func (fr *FrameReader) Buffered() []byte { return fr.buf[fr.off:fr.end] }

// Ready reports whether a whole frame is buffered: its length prefix and
// the bytes the prefix counts, so Next returns it without reading.
func (fr *FrameReader) Ready() bool {
	b := fr.Buffered()
	return len(b) >= 4 && uint64(len(b)-4) >= uint64(binary.LittleEndian.Uint32(b))
}

// fill reads until the buffer holds need unreturned bytes, first sliding
// them to the front of the buffer, and growing it once it is full. It
// returns the stream's read error once the bytes before it run out.
func (fr *FrameReader) fill(need int) error {
	if fr.buf == nil {
		fr.buf = make([]byte, helloBufBytes)
	}
	for empty := 0; fr.end-fr.off < need; {
		if fr.err != nil {
			return fr.err
		}
		if fr.off > 0 {
			fr.end = copy(fr.buf, fr.buf[fr.off:fr.end])
			fr.off = 0
		}
		if fr.end == len(fr.buf) {
			size := max(minFrameBufBytes, 2*need)
			if need > eagerFrameBytes {
				size = min(max(2*len(fr.buf), eagerFrameBytes), need+eagerFrameBytes)
			}
			grown := make([]byte, size)
			copy(grown, fr.buf[:fr.end])
			fr.buf = grown
		}
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		fr.err = err
		if n > 0 || err != nil {
			empty = 0
		} else if empty++; empty >= 100 {
			fr.err = io.ErrNoProgress
		}
	}
	return nil
}

// Hello is the session-opening handshake: the client names the codec it
// wants the gateway to run and the fixed transaction size it will stream.
type Hello struct {
	// Version is the client's protocol revision; a peer rejects any but
	// ProtocolVersion.
	Version uint8
	// TxnSize is the per-transaction payload size in bytes.
	TxnSize int
	// Scheme is the registry name of the requested codec.
	Scheme string
}

// MarshalHello encodes h as a sealed Hello frame body.
func MarshalHello(h Hello) ([]byte, error) {
	if h.TxnSize <= 0 || h.TxnSize > MaxTxnBytes {
		return nil, fmt.Errorf("%w: transaction size %d out of (0, %d]", ErrBadFrame, h.TxnSize, MaxTxnBytes)
	}
	if len(h.Scheme) == 0 || len(h.Scheme) > 255 {
		return nil, fmt.Errorf("%w: scheme name length %d out of [1, 255]", ErrBadFrame, len(h.Scheme))
	}
	body := make([]byte, 0, len(ProtocolMagic)+1+4+1+len(h.Scheme)+sealBytes)
	body = append(body, ProtocolMagic...)
	body = append(body, h.Version)
	body = binary.LittleEndian.AppendUint32(body, uint32(h.TxnSize))
	body = append(body, byte(len(h.Scheme)))
	body = append(body, h.Scheme...)
	return seal(body), nil
}

// ParseHello decodes a Hello frame body. It reads the version byte first:
// a Hello naming another revision, whose layout this one cannot know,
// returns only that Version with an error wrapping ErrVersion. The
// exception is a Hello of this revision whose version byte alone was
// damaged, which its seal still vouches for once the byte reads
// ProtocolVersion: like every Hello that fails its seal, it reports
// ErrCRC, and no field of it is read.
func ParseHello(body []byte) (Hello, error) {
	const fixed = len(ProtocolMagic) + 1 + 4 + 1
	if len(body) < len(ProtocolMagic)+1 {
		return Hello{}, fmt.Errorf("%w: hello body %d bytes, want >= %d", ErrBadFrame, len(body), fixed+sealBytes)
	}
	if v := body[4]; v != ProtocolVersion {
		if n := len(body) - sealBytes; n > 4 {
			crc := crc32.Update(crc32.Checksum(body[:4], castagnoli), castagnoli, []byte{ProtocolVersion})
			if crc32.Update(crc, castagnoli, body[5:n]) == binary.LittleEndian.Uint32(body[n:]) {
				return Hello{}, fmt.Errorf("%w: hello names version %d, its seal version %d", ErrCRC, v, ProtocolVersion)
			}
		}
		if string(body[:4]) != ProtocolMagic {
			return Hello{}, fmt.Errorf("%w: bad hello magic %q", ErrBadFrame, body[:4])
		}
		return Hello{Version: v}, fmt.Errorf("%w %d (serving %d)", ErrVersion, v, ProtocolVersion)
	}
	body, err := unseal(body, "hello")
	if err != nil {
		return Hello{}, err
	}
	if len(body) < fixed {
		return Hello{}, fmt.Errorf("%w: hello body %d bytes, want >= %d", ErrBadFrame, len(body), fixed)
	}
	if string(body[:4]) != ProtocolMagic {
		return Hello{}, fmt.Errorf("%w: bad hello magic %q", ErrBadFrame, body[:4])
	}
	h := Hello{
		Version: body[4],
		TxnSize: int(binary.LittleEndian.Uint32(body[5:9])),
	}
	nameLen := int(body[9])
	if len(body) != fixed+nameLen {
		return Hello{}, fmt.Errorf("%w: hello body %d bytes, want %d", ErrBadFrame, len(body), fixed+nameLen)
	}
	h.Scheme = string(body[fixed : fixed+nameLen])
	if h.TxnSize <= 0 || h.TxnSize > MaxTxnBytes {
		return Hello{}, fmt.Errorf("%w: transaction size %d out of (0, %d]", ErrBadFrame, h.TxnSize, MaxTxnBytes)
	}
	if h.Scheme == "" {
		return Hello{}, fmt.Errorf("%w: empty scheme name", ErrBadFrame)
	}
	return h, nil
}

// HelloOK is the server's handshake acknowledgement.
type HelloOK struct {
	// Version is the server's protocol revision, ProtocolVersion.
	Version uint8
	// MetaBits is the scheme's side-band width per transaction; every
	// encoded record in a BatchReply carries ceil(MetaBits/8) metadata
	// bytes after its payload.
	MetaBits int
	// BatchLimit is the maximum transaction count the server accepts per
	// Batch frame.
	BatchLimit int
}

// MarshalHelloOK encodes ok as a sealed HelloOK frame body.
func MarshalHelloOK(ok HelloOK) []byte {
	body := make([]byte, 0, 9+sealBytes)
	body = append(body, ok.Version)
	body = binary.LittleEndian.AppendUint32(body, uint32(ok.MetaBits))
	body = binary.LittleEndian.AppendUint32(body, uint32(ok.BatchLimit))
	return seal(body)
}

// ParseHelloOK decodes a HelloOK frame body once its seal holds.
func ParseHelloOK(body []byte) (HelloOK, error) {
	body, err := unseal(body, "hello-ok")
	if err != nil {
		return HelloOK{}, err
	}
	if len(body) != 9 {
		return HelloOK{}, fmt.Errorf("%w: hello-ok body %d bytes, want %d", ErrBadFrame, len(body), 9)
	}
	return HelloOK{
		Version:    body[0],
		MetaBits:   int(binary.LittleEndian.Uint32(body[1:5])),
		BatchLimit: int(binary.LittleEndian.Uint32(body[5:9])),
	}, nil
}

// AppendBatch appends txns to dst as a Batch frame body: the count, the
// address and kind columns, then the payloads back to back. Every payload
// must be txnSize bytes. A streaming client reuses one buffer across
// batches.
func AppendBatch(dst []byte, txns []Transaction, txnSize int) ([]byte, error) {
	n := len(txns)
	base := len(dst)
	dst = slices.Grow(dst, 4+n*(batchColumnBytes+txnSize))
	dst = dst[:base+4+n*(batchColumnBytes+txnSize)]
	binary.LittleEndian.PutUint32(dst[base:], uint32(n))
	addrs := dst[base+4 : base+4+8*n]
	kinds := dst[base+4+8*n : base+4+9*n]
	data := dst[base+4+9*n:]
	for i, t := range txns {
		if len(t.Data) != txnSize {
			return nil, fmt.Errorf("%w: transaction %d has %d bytes, batch expects %d", ErrBadFrame, i, len(t.Data), txnSize)
		}
		binary.LittleEndian.PutUint64(addrs[8*i:], t.Addr)
		kinds[i] = byte(t.Kind)
		copy(data[i*txnSize:], t.Data)
	}
	return dst, nil
}

// OpenBatch checks a Batch frame body against transactions of txnSize
// bytes — its size against its count, and every kind — and returns the
// count and the data block, the count payloads back to back, in place in
// body.
func OpenBatch(body []byte, txnSize int) (n int, data []byte, err error) {
	if len(body) < 4 {
		return 0, nil, fmt.Errorf("%w: batch body %d bytes, want >= 4", ErrBadFrame, len(body))
	}
	n = int(binary.LittleEndian.Uint32(body[:4]))
	if want := n * (batchColumnBytes + txnSize); len(body)-4 != want {
		return 0, nil, fmt.Errorf("%w: batch of %d transactions wants %d body bytes, have %d", ErrBadFrame, n, want, len(body)-4)
	}
	for _, k := range body[4+8*n : 4+9*n] {
		if Kind(k) != Read && Kind(k) != Write {
			return 0, nil, fmt.Errorf("%w: invalid transaction kind %d", ErrBadFrame, k)
		}
	}
	return n, body[4+9*n:], nil
}

// ParseBatch decodes a Batch frame body into dst (reused when it has
// capacity). Transaction Data fields alias body.
func ParseBatch(body []byte, txnSize int, dst []Transaction) ([]Transaction, error) {
	n, data, err := OpenBatch(body, txnSize)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n {
		dst = make([]Transaction, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = Transaction{
			Addr: binary.LittleEndian.Uint64(body[4+8*i:]),
			Kind: Kind(body[4+8*n+i]),
			Data: data[i*txnSize : (i+1)*txnSize : (i+1)*txnSize],
		}
	}
	return dst, nil
}

// BatchStats is the gateway's per-batch accounting, returned in every
// BatchReply: wire-level activity of the batch transferred baseline versus
// encoded over the session's bus model, and the memory-system energy
// estimate for both.
type BatchStats struct {
	// Transactions is the batch size.
	Transactions uint32
	// DataBits is the payload bits moved (excluding metadata wires).
	DataBits uint64
	// OnesBefore and OnesAfter count 1 values driven on the interface for
	// the baseline and encoded transfers (metadata wires included).
	OnesBefore, OnesAfter uint64
	// TogglesBefore and TogglesAfter count wire transitions.
	TogglesBefore, TogglesAfter uint64
	// BaselinePJ and EncodedPJ are the estimated memory-system energies
	// of the two transfers in picojoules.
	BaselinePJ, EncodedPJ float64
}

// batchStatsBytes is the fixed BatchStats encoding size: the transaction
// count, five uint64 activity counters, and two float64 energies.
const batchStatsBytes = 4 + 5*8 + 2*8

// BatchReplyHeadBytes is the fixed part of a BatchReply frame, ahead of its
// records: the frame header, the stream id, the trace envelope and the
// BatchStats. A reply of n records of recLen bytes is BatchReplyHeadBytes +
// n*recLen bytes long.
const BatchReplyHeadBytes = FrameHeaderBytes + muxPrefixBytes + batchEnvelopeBytes + traceEnvelopeBytes + batchStatsBytes

// EnergySavedPJ returns the estimated picojoules saved by encoding.
func (s BatchStats) EnergySavedPJ() float64 { return s.BaselinePJ - s.EncodedPJ }

// Add accumulates o into s.
func (s *BatchStats) Add(o BatchStats) {
	s.Transactions += o.Transactions
	s.DataBits += o.DataBits
	s.OnesBefore += o.OnesBefore
	s.OnesAfter += o.OnesAfter
	s.TogglesBefore += o.TogglesBefore
	s.TogglesAfter += o.TogglesAfter
	s.BaselinePJ += o.BaselinePJ
	s.EncodedPJ += o.EncodedPJ
}

// AppendBatchStats appends the fixed-size encoding of s.
func AppendBatchStats(dst []byte, s BatchStats) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, s.Transactions)
	dst = binary.LittleEndian.AppendUint64(dst, s.DataBits)
	dst = binary.LittleEndian.AppendUint64(dst, s.OnesBefore)
	dst = binary.LittleEndian.AppendUint64(dst, s.OnesAfter)
	dst = binary.LittleEndian.AppendUint64(dst, s.TogglesBefore)
	dst = binary.LittleEndian.AppendUint64(dst, s.TogglesAfter)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.BaselinePJ))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.EncodedPJ))
	return dst
}

// ParseBatchStats decodes a BatchStats prefix, returning the remainder.
func ParseBatchStats(b []byte) (BatchStats, []byte, error) {
	if len(b) < batchStatsBytes {
		return BatchStats{}, nil, fmt.Errorf("%w: batch stats need %d bytes, have %d", ErrBadFrame, batchStatsBytes, len(b))
	}
	s := BatchStats{
		Transactions:  binary.LittleEndian.Uint32(b[:4]),
		DataBits:      binary.LittleEndian.Uint64(b[4:12]),
		OnesBefore:    binary.LittleEndian.Uint64(b[12:20]),
		OnesAfter:     binary.LittleEndian.Uint64(b[20:28]),
		TogglesBefore: binary.LittleEndian.Uint64(b[28:36]),
		TogglesAfter:  binary.LittleEndian.Uint64(b[36:44]),
		BaselinePJ:    math.Float64frombits(binary.LittleEndian.Uint64(b[44:52])),
		EncodedPJ:     math.Float64frombits(binary.LittleEndian.Uint64(b[52:60])),
	}
	return s, b[batchStatsBytes:], nil
}

// EncodedRecord is one transcoded transaction in a BatchReply: the encoded
// payload plus the scheme's packed side-band metadata.
type EncodedRecord struct {
	Data []byte
	Meta []byte
}

// BatchReply is the gateway's answer to one Batch frame.
type BatchReply struct {
	Stats   BatchStats
	Records []EncodedRecord
}

// ParseBatchReplyInto decodes a BatchReply frame body, reusing records'
// capacity for the decoded record headers, so a streaming client allocates
// per session, not per batch. Record slices alias body.
func ParseBatchReplyInto(body []byte, txnSize, metaBytes int, records []EncodedRecord) (BatchReply, error) {
	stats, rest, err := ParseBatchStats(body)
	if err != nil {
		return BatchReply{}, err
	}
	rec := txnSize + metaBytes
	if rec <= 0 || len(rest)%rec != 0 {
		return BatchReply{}, fmt.Errorf("%w: %d reply bytes do not divide into %d-byte records", ErrBadFrame, len(rest), rec)
	}
	n := len(rest) / rec
	if uint32(n) != stats.Transactions {
		return BatchReply{}, fmt.Errorf("%w: reply carries %d records, stats claim %d", ErrBadFrame, n, stats.Transactions)
	}
	if cap(records) < n {
		records = make([]EncodedRecord, n)
	}
	records = records[:n]
	for i := 0; i < n; i++ {
		off := i * rec
		records[i] = EncodedRecord{
			Data: rest[off : off+txnSize],
			Meta: rest[off+txnSize : off+rec],
		}
	}
	return BatchReply{Stats: stats, Records: records}, nil
}
