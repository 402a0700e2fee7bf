package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestAnswerChecks pins the requester's reading of every answer: one row
// per frame kind and mismatch, each either sorted into an AnswerKind or
// reported damaged (an error wrapping ErrBadFrame).
func TestAnswerChecks(t *testing.T) {
	const sid, id, traceID = goldenStreamID, goldenBatchID, goldenTraceID
	hello := func(ft FrameType, b []byte) (Answer, error) { return CheckHello(ft, b) }
	open := func(ft FrameType, b []byte) (Answer, error) { return CheckStreamOpen(ft, b, sid) }
	batch := func(ft FrameType, b []byte) (Answer, error) { return CheckBatch(ft, b, sid, id, traceID) }

	payload := goldenReplyBody(t)
	reply := func(rsid uint32, rid, rtrace uint64) []byte {
		return append(AppendStreamID(nil, rsid), traceEnvelope(t, rid, rtrace, payload)...)
	}
	crcDamaged := reply(sid, id, traceID)
	crcDamaged[len(crcDamaged)-1] ^= 0x40
	streamBody := func(rsid uint32, body []byte) []byte { return append(AppendStreamID(nil, rsid), body...) }
	lookalike := append(AppendStreamID(nil, sid), " is draining"...) // an Error text whose first 4 bytes spell sid
	flip := func(b []byte, i int) []byte { b[i] ^= 1; return b }

	cases := []struct {
		name  string
		check func(FrameType, []byte) (Answer, error)
		ft    FrameType
		body  []byte
		want  Answer
		crc   bool // damaged by its envelope CRC or its seal (ErrCRC)
		bad   bool // damaged
	}{
		{"hello/ok", hello, FrameHelloOK, MarshalHelloOK(HelloOK{Version: ProtocolVersion, MetaBits: 2, BatchLimit: 4096}),
			Answer{MetaBits: 2, BatchLimit: 4096}, false, false},
		{"hello/error", hello, FrameError, []byte("unknown scheme"), Answer{Kind: AnswerRefused, Msg: "unknown scheme"}, false, false},
		{"hello/old-version", hello, FrameHelloOK, MarshalHelloOK(HelloOK{Version: 3, BatchLimit: 4096}), Answer{}, false, true},
		{"hello/truncated", hello, FrameHelloOK, MarshalHelloOK(HelloOK{Version: ProtocolVersion})[:4], Answer{}, true, true},
		{"hello/damaged", hello, FrameHelloOK, flip(MarshalHelloOK(HelloOK{Version: ProtocolVersion, MetaBits: 2, BatchLimit: 4096}), 1), Answer{}, true, true},
		{"hello/wrong-type", hello, FrameBatchReply, reply(sid, id, traceID), Answer{}, false, true},

		{"open/ok", open, FrameStreamOpenOK, MarshalStreamOpenOK(StreamOpenOK{ID: sid, MetaBits: 2, BatchLimit: 64}),
			Answer{MetaBits: 2, BatchLimit: 64}, false, false},
		{"open/refused", open, FrameStreamOpenOK, MarshalStreamOpenOK(StreamOpenOK{ID: sid, Status: StreamRefused, Msg: "stream limit"}),
			Answer{Kind: AnswerRefused, Msg: "stream limit"}, false, false},
		{"open/error", open, FrameError, []byte("idle timeout"), Answer{}, false, true},
		{"open/wrong-stream", open, FrameStreamOpenOK, MarshalStreamOpenOK(StreamOpenOK{ID: sid + 1}), Answer{}, false, true},
		{"open/unknown-status", open, FrameStreamOpenOK, MarshalStreamOpenOK(StreamOpenOK{ID: sid, Status: 7, Msg: "?"}), Answer{}, false, true},
		{"open/truncated", open, FrameStreamOpenOK, MarshalStreamOpenOK(StreamOpenOK{ID: sid})[:8], Answer{}, true, true},
		{"open/damaged-status", open, FrameStreamOpenOK, flip(MarshalStreamOpenOK(StreamOpenOK{ID: sid, MetaBits: 2, BatchLimit: 64}), 4), Answer{}, true, true},
		{"open/wrong-type", open, FrameStreamClosed, MarshalStreamClosed(sid, ""), Answer{}, false, true},

		{"batch/reply", batch, FrameBatchReply, reply(sid, id, traceID), Answer{Payload: payload}, false, false},
		{"batch/reply-wrong-stream", batch, FrameBatchReply, reply(sid+1, id, traceID), Answer{}, false, true},
		{"batch/reply-wrong-batch", batch, FrameBatchReply, reply(sid, id+1, traceID), Answer{}, false, true},
		{"batch/reply-wrong-trace", batch, FrameBatchReply, reply(sid, id, traceID^1), Answer{}, false, true},
		{"batch/reply-crc", batch, FrameBatchReply, crcDamaged, Answer{}, true, true},
		{"batch/reply-truncated", batch, FrameBatchReply, reply(sid, id, traceID)[:10], Answer{}, false, true},
		{"batch/busy", batch, FrameBusy, streamBody(sid, MarshalBusy(id, 25*time.Millisecond)),
			Answer{Kind: AnswerBusy, RetryAfter: 25 * time.Millisecond}, false, false},
		{"batch/busy-wrong-stream", batch, FrameBusy, streamBody(sid+1, MarshalBusy(id, 0)), Answer{}, false, true},
		{"batch/busy-wrong-batch", batch, FrameBusy, streamBody(sid, MarshalBusy(id-1, 0)), Answer{}, false, true},
		{"batch/busy-truncated", batch, FrameBusy, streamBody(sid, MarshalBusy(id, 0)[:11]), Answer{}, false, true},
		{"batch/fault", batch, FrameBatchError, streamBody(sid, MarshalBatchError(id, true, "codec fault")),
			Answer{Kind: AnswerFault, Reset: true, Msg: "codec fault"}, false, false},
		{"batch/fault-wrong-stream", batch, FrameBatchError, streamBody(sid+1, MarshalBatchError(id, false, "")), Answer{}, false, true},
		{"batch/fault-wrong-batch", batch, FrameBatchError, streamBody(sid, MarshalBatchError(id+1, false, "")), Answer{}, false, true},
		{"batch/killed", batch, FrameStreamClosed, MarshalStreamClosed(sid, "fault budget exhausted"),
			Answer{Kind: AnswerKilled, Msg: "fault budget exhausted"}, false, false},
		{"batch/killed-wrong-stream", batch, FrameStreamClosed, MarshalStreamClosed(sid+1, ""), Answer{}, false, true},
		{"batch/error", batch, FrameError, []byte("server is draining"), Answer{}, false, true},
		{"batch/error-stream-lookalike", batch, FrameError, lookalike, Answer{}, false, true},
		{"batch/error-empty", batch, FrameError, nil, Answer{}, false, true},
		{"batch/wrong-type", batch, FrameStateAck, streamBody(sid, MarshalStateAck(StateOK, id, nil)), Answer{}, false, true},
		{"batch/hello-ok", batch, FrameHelloOK, MarshalHelloOK(HelloOK{Version: ProtocolVersion}), Answer{}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.check(tc.ft, tc.body)
			if tc.bad {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("answer = %+v, %v; want a damaged frame (ErrBadFrame)", got, err)
				}
				if tc.crc != errors.Is(err, ErrCRC) {
					t.Errorf("error %v: wraps ErrCRC = %v, want %v", err, !tc.crc, tc.crc)
				}
				return
			}
			if err != nil {
				t.Fatalf("answer damaged: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("answer = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// FuzzCheckBatch feeds arbitrary answer frames to CheckBatch, seeded with
// the golden vectors of every batch answer: no input may panic, every
// error must wrap ErrBadFrame, and an answer it accepts must be the frame
// kind it claims and name the requested stream, batch and trace ids.
func FuzzCheckBatch(f *testing.F) {
	for _, name := range []string{"v4_batch_reply", "v4_busy", "v4_batch_error", "v4_stream_closed", "error"} {
		ft, body := goldenBody(f, name)
		f.Add(byte(ft), body)
	}
	f.Add(byte(FrameError), AppendStreamID(nil, goldenStreamID))

	f.Fuzz(func(t *testing.T, ftb byte, body []byte) {
		const sid, id, traceID = goldenStreamID, goldenBatchID, goldenTraceID
		ft := FrameType(ftb)
		a, err := CheckBatch(ft, body, sid, id, traceID)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("CheckBatch error %v does not wrap ErrBadFrame", err)
			}
			return
		}
		want := map[AnswerKind]FrameType{
			AnswerOK: FrameBatchReply, AnswerBusy: FrameBusy, AnswerFault: FrameBatchError,
			AnswerKilled: FrameStreamClosed,
		}
		if wft, ok := want[a.Kind]; !ok || wft != ft {
			t.Fatalf("frame %#x accepted as kind %d", ftb, a.Kind)
		}
		rsid, rest, err := SplitStreamID(body)
		if err != nil || rsid != sid {
			t.Fatalf("accepted an answer on stream %d (err %v), want %d", rsid, err, sid)
		}
		switch a.Kind {
		case AnswerOK:
			rid, rtrace, payload, err := OpenTraceEnvelope(rest)
			if err != nil || rid != id || rtrace != traceID || !bytes.Equal(payload, a.Payload) {
				t.Fatalf("accepted reply names batch %d trace %#x (err %v), want %d %#x", rid, rtrace, err, uint64(id), uint64(traceID))
			}
		case AnswerBusy, AnswerFault:
			if rid := binary.LittleEndian.Uint64(rest[:8]); rid != id {
				t.Fatalf("accepted answer names batch %d, want %d", rid, uint64(id))
			}
		}
	})
}

// FuzzCheckHandshake damages one byte of a sealed handshake frame body —
// a Hello or StreamOpen as the server reads it, a HelloOK or StreamOpenOK
// as the requester checks it — by XOR with a non-zero mask. Whatever the
// body and the damage, a frame that read cleanly must then fail its seal
// (ErrCRC): never a parsed value, a refusal, or a version to name.
func FuzzCheckHandshake(f *testing.F) {
	for _, name := range []string{"v5_hello", "v5_hello_ok", "v5_stream_open", "v5_stream_open_ok", "v5_stream_open_refused"} {
		ft, body := goldenBody(f, name)
		for _, pos := range []uint16{0, 4, uint16(len(body) - 1)} {
			f.Add(byte(ft), body, pos, byte(1))
		}
	}
	f.Fuzz(func(t *testing.T, ftb byte, body []byte, pos uint16, mask byte) {
		var read func([]byte) error
		switch FrameType(ftb) {
		case FrameHello:
			read = func(b []byte) error { _, err := ParseHello(b); return err }
		case FrameHelloOK:
			read = func(b []byte) error { _, err := CheckHello(FrameHelloOK, b); return err }
		case FrameStreamOpen:
			read = func(b []byte) error { _, err := ParseStreamOpen(b); return err }
		case FrameStreamOpenOK:
			var sid uint32
			if len(body) >= 4 {
				sid = binary.LittleEndian.Uint32(body)
			}
			read = func(b []byte) error { _, err := CheckStreamOpen(FrameStreamOpenOK, b, sid); return err }
		}
		if read == nil || mask == 0 || len(body) == 0 || read(body) != nil {
			return
		}
		damaged := bytes.Clone(body)
		damaged[int(pos)%len(body)] ^= mask
		if err := read(damaged); !errors.Is(err, ErrCRC) {
			t.Fatalf("frame %#x with byte %d flipped by %#x read as %v, want ErrCRC", ftb, int(pos)%len(body), mask, err)
		}
	})
}
