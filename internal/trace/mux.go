// BXTP stream multiplexing.
//
// Many logical sessions share one TCP connection. The unit of
// multiplexing is the stream: an independent (scheme, transaction size)
// context with its own codec state, batch-id space, fault budget, and
// epoch semantics. The rule is uniform — every post-handshake frame body
// begins with a uint32 stream id, followed by the frame's stream-local
// encoding:
//
//	Batch        sid | id | crc | trace id | count + addrs + kinds + data
//	BatchReply   sid | id | crc | trace id | stats + records
//	Busy         sid | id | retry-after
//	BatchError   sid | id | flags | message
//	StateSnapshot / StateRestore / StateAck    sid | body
//
// The stream id sits outside the CRC envelope on purpose: a proxy relays
// a body verbatim, byte-for-byte, without resealing checksums, and reads
// only the prefix to route it. Corruption of the prefix itself misroutes
// the frame to another stream, where the batch-id/trace-id echo check
// rejects it — the same end-to-end detection that catches a corrupted
// batch id inside the envelope.
//
// The Hello's scheme and transaction size implicitly open stream 0.
// Further streams open explicitly: StreamOpen (stream id + transaction
// size + scheme) is answered by StreamOpenOK carrying the per-stream
// metadata width and batch limit, or a refusal status and message. Both
// end in the handshake seal, which covers their stream id too: a proxy
// relays a StreamOpenOK verbatim under the same id.
// StreamClose retires a stream; the gateway answers StreamClosed, and also
// sends StreamClosed unprompted when it kills a single stream (fault
// budget exhausted) while the connection and its sibling streams keep
// serving. Stream ids are chosen by the client, must not be reused while
// open, and have no ordering requirement.
package trace

import (
	"encoding/binary"
	"fmt"
)

// Stream lifecycle frame types.
const (
	// FrameStreamOpen opens an additional logical stream on the
	// session. Body: uint32 stream id + uint32 txn size + len-prefixed
	// scheme name + seal.
	FrameStreamOpen FrameType = 0x05
	// FrameStreamClose retires one stream. Body: uint32 stream id.
	FrameStreamClose FrameType = 0x06
	// FrameStreamOpenOK answers StreamOpen. Body: uint32 stream id +
	// uint8 status, then metaBits+batchLimit on success or a UTF-8
	// message on refusal, then the seal.
	FrameStreamOpenOK FrameType = 0x86
	// FrameStreamClosed acknowledges StreamClose, or reports the
	// gateway killed one stream while the session stays up. Body: uint32
	// stream id + optional UTF-8 message.
	FrameStreamClosed FrameType = 0x87
)

// StreamOpenOK status codes.
const (
	// StreamOK reports the stream opened.
	StreamOK uint8 = 0
	// StreamRefused reports the gateway rejected the open (unknown
	// scheme, duplicate id, stream limit); the message says why. The
	// session and its other streams are unaffected.
	StreamRefused uint8 = 1
)

// muxPrefixBytes is the uint32 stream id prepended to every
// post-handshake frame body.
const muxPrefixBytes = 4

// AppendStreamID appends the stream-id prefix to dst. The caller appends
// the stream-local frame body after it.
func AppendStreamID(dst []byte, sid uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, sid)
}

// SplitStreamID splits a frame body into its stream id and the
// stream-local remainder. The remainder aliases body.
func SplitStreamID(body []byte) (sid uint32, rest []byte, err error) {
	if len(body) < muxPrefixBytes {
		return 0, nil, fmt.Errorf("%w: %d-byte body is shorter than the stream-id prefix", ErrBadFrame, len(body))
	}
	return binary.LittleEndian.Uint32(body[:muxPrefixBytes]), body[muxPrefixBytes:], nil
}

// StreamOpen asks the gateway to open one additional logical stream.
type StreamOpen struct {
	// ID is the client-chosen stream id; it must not collide with a
	// stream currently open on the session.
	ID uint32
	// TxnSize is the stream's per-transaction payload size in bytes.
	TxnSize int
	// Scheme is the registry name of the codec the stream runs.
	Scheme string
}

// MarshalStreamOpen encodes o as a sealed StreamOpen frame body.
func MarshalStreamOpen(o StreamOpen) ([]byte, error) {
	if o.TxnSize <= 0 || o.TxnSize > MaxTxnBytes {
		return nil, fmt.Errorf("%w: transaction size %d out of (0, %d]", ErrBadFrame, o.TxnSize, MaxTxnBytes)
	}
	if len(o.Scheme) == 0 || len(o.Scheme) > 255 {
		return nil, fmt.Errorf("%w: scheme name length %d out of [1, 255]", ErrBadFrame, len(o.Scheme))
	}
	body := make([]byte, 0, muxPrefixBytes+4+1+len(o.Scheme)+sealBytes)
	body = AppendStreamID(body, o.ID)
	body = binary.LittleEndian.AppendUint32(body, uint32(o.TxnSize))
	body = append(body, byte(len(o.Scheme)))
	return seal(append(body, o.Scheme...)), nil
}

// ParseStreamOpen decodes a StreamOpen frame body once its seal holds.
func ParseStreamOpen(body []byte) (StreamOpen, error) {
	const fixed = muxPrefixBytes + 4 + 1
	body, err := unseal(body, "stream-open")
	if err != nil {
		return StreamOpen{}, err
	}
	if len(body) < fixed {
		return StreamOpen{}, fmt.Errorf("%w: stream-open body %d bytes, want >= %d", ErrBadFrame, len(body), fixed)
	}
	o := StreamOpen{
		ID:      binary.LittleEndian.Uint32(body[:4]),
		TxnSize: int(binary.LittleEndian.Uint32(body[4:8])),
	}
	nameLen := int(body[8])
	if len(body) != fixed+nameLen {
		return StreamOpen{}, fmt.Errorf("%w: stream-open body %d bytes, want %d", ErrBadFrame, len(body), fixed+nameLen)
	}
	o.Scheme = string(body[fixed : fixed+nameLen])
	if o.TxnSize <= 0 || o.TxnSize > MaxTxnBytes {
		return StreamOpen{}, fmt.Errorf("%w: transaction size %d out of (0, %d]", ErrBadFrame, o.TxnSize, MaxTxnBytes)
	}
	if o.Scheme == "" {
		return StreamOpen{}, fmt.Errorf("%w: empty scheme name", ErrBadFrame)
	}
	return o, nil
}

// StreamOpenOK is the gateway's answer to one StreamOpen.
type StreamOpenOK struct {
	// ID echoes the stream id from the open.
	ID uint32
	// Status is StreamOK or StreamRefused.
	Status uint8
	// MetaBits and BatchLimit carry the stream's negotiated metadata
	// width and batch cap when Status is StreamOK.
	MetaBits   int
	BatchLimit int
	// Msg says why the open was refused when Status is not StreamOK.
	Msg string
}

// MarshalStreamOpenOK encodes ok as a sealed StreamOpenOK frame body.
func MarshalStreamOpenOK(ok StreamOpenOK) []byte {
	body := make([]byte, 0, muxPrefixBytes+1+max(8, len(ok.Msg))+sealBytes)
	body = AppendStreamID(body, ok.ID)
	body = append(body, ok.Status)
	if ok.Status != StreamOK {
		return seal(append(body, ok.Msg...))
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(ok.MetaBits))
	return seal(binary.LittleEndian.AppendUint32(body, uint32(ok.BatchLimit)))
}

// ParseStreamOpenOK decodes a StreamOpenOK frame body once its seal holds.
func ParseStreamOpenOK(body []byte) (StreamOpenOK, error) {
	body, err := unseal(body, "stream-open-ok")
	if err != nil {
		return StreamOpenOK{}, err
	}
	if len(body) < muxPrefixBytes+1 {
		return StreamOpenOK{}, fmt.Errorf("%w: stream-open-ok body %d bytes, want >= %d", ErrBadFrame, len(body), muxPrefixBytes+1)
	}
	ok := StreamOpenOK{
		ID:     binary.LittleEndian.Uint32(body[:4]),
		Status: body[4],
	}
	if ok.Status != StreamOK {
		ok.Msg = string(body[5:])
		return ok, nil
	}
	if len(body) != muxPrefixBytes+1+8 {
		return StreamOpenOK{}, fmt.Errorf("%w: stream-open-ok body %d bytes, want %d", ErrBadFrame, len(body), muxPrefixBytes+1+8)
	}
	ok.MetaBits = int(binary.LittleEndian.Uint32(body[5:9]))
	ok.BatchLimit = int(binary.LittleEndian.Uint32(body[9:13]))
	return ok, nil
}

// MarshalStreamClose encodes a StreamClose frame body.
func MarshalStreamClose(sid uint32) []byte {
	return AppendStreamID(make([]byte, 0, muxPrefixBytes), sid)
}

// ParseStreamClose decodes a StreamClose frame body.
func ParseStreamClose(body []byte) (uint32, error) {
	if len(body) != muxPrefixBytes {
		return 0, fmt.Errorf("%w: stream-close body %d bytes, want %d", ErrBadFrame, len(body), muxPrefixBytes)
	}
	return binary.LittleEndian.Uint32(body), nil
}

// MarshalStreamClosed encodes a StreamClosed frame body: the retired
// stream's id and an optional message (empty on a clean client-requested
// close, the failure cause when the gateway killed the stream).
func MarshalStreamClosed(sid uint32, msg string) []byte {
	body := AppendStreamID(make([]byte, 0, muxPrefixBytes+len(msg)), sid)
	return append(body, msg...)
}

// ParseStreamClosed decodes a StreamClosed frame body.
func ParseStreamClosed(body []byte) (sid uint32, msg string, err error) {
	if len(body) < muxPrefixBytes {
		return 0, "", fmt.Errorf("%w: stream-closed body %d bytes, want >= %d", ErrBadFrame, len(body), muxPrefixBytes)
	}
	return binary.LittleEndian.Uint32(body[:4]), string(body[4:]), nil
}
