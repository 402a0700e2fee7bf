package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden BXTP wire fixtures under testdata/")

// goldenFrame is one normative BXTP frame: a fixed logical message and the
// exact bytes it must put on the wire (length prefix, type byte, body).
type goldenFrame struct {
	name string
	typ  FrameType
	body func(t *testing.T) []byte
}

// goldenTxns is the fixed two-transaction batch every batch-shaped vector
// carries: one write and one read of recognizable byte patterns.
func goldenTxns() []Transaction {
	w := make([]byte, 32)
	r := make([]byte, 32)
	for i := range w {
		w[i] = byte(i)
		r[i] = byte(0xA0 ^ i)
	}
	return []Transaction{
		{Addr: 0x0000000010002000, Kind: Write, Data: w},
		{Addr: 0x0000000010002040, Kind: Read, Data: r},
	}
}

// goldenStats is the fixed accounting block in the reply vectors.
func goldenStats() BatchStats {
	return BatchStats{
		Transactions:  2,
		DataBits:      512,
		OnesBefore:    260,
		OnesAfter:     120,
		TogglesBefore: 300,
		TogglesAfter:  140,
		BaselinePJ:    1234.5,
		EncodedPJ:     567.25,
	}
}

// goldenReplyBody marshals the fixed reply: the stats block plus the two
// transactions echoed back with a one-byte metadata lane each.
func goldenReplyBody(t *testing.T) []byte {
	t.Helper()
	txns := goldenTxns()
	reply := BatchReply{Stats: goldenStats()}
	for i, txn := range txns {
		reply.Records = append(reply.Records, EncodedRecord{
			Data: txn.Data,
			Meta: []byte{byte(i + 1)},
		})
	}
	body, err := MarshalBatchReply(reply, 32, 1)
	if err != nil {
		t.Fatalf("MarshalBatchReply: %v", err)
	}
	return body
}

const goldenBatchID = 0x0102030405060708

// goldenStateSeq is the fixed batch sequence in the state-transfer vectors.
const goldenStateSeq = 0x000000000000002A

// goldenStateBlob is the fixed opaque state payload in the state-transfer
// vectors. The trace layer never interprets the blob (each codec frames
// its own sections, see internal/snap), so a recognizable byte pattern
// stands in for a codec snapshot.
func goldenStateBlob() []byte {
	b := make([]byte, 24)
	for i := range b {
		b[i] = byte(0x5A ^ i*3)
	}
	return b
}

// goldenTraceID is the fixed end-to-end trace id in the batch vectors.
const goldenTraceID = 0xfeedc0dedeadbeef

// goldenStreamID is the fixed stream id in the v4 vectors.
const goldenStreamID = 0x00000007

// muxBody prepends the stream-id prefix to a stream-local frame body,
// exactly as a peer frames every post-handshake message.
func muxBody(v3 []byte) []byte {
	return append(AppendStreamID(nil, goldenStreamID), v3...)
}

// traceEnvelope wraps payload in the batch envelope (batch id + trace id)
// and seals the CRC, exactly as a peer does.
func traceEnvelope(t *testing.T, id, traceID uint64, payload []byte) []byte {
	t.Helper()
	body := AppendTraceEnvelope(nil, id, traceID)
	body = append(body, payload...)
	if err := SealBatchEnvelope(body); err != nil {
		t.Fatalf("SealBatchEnvelope: %v", err)
	}
	return body
}

// legacyHello is the unsealed Hello body that peers of versions 1–4 open
// with: magic, version, transaction size, and the length-prefixed scheme.
func legacyHello(version uint8, txnSize uint32, scheme string) func(*testing.T) []byte {
	return func(*testing.T) []byte {
		body := append([]byte(ProtocolMagic), version)
		body = binary.LittleEndian.AppendUint32(body, txnSize)
		return append(append(body, byte(len(scheme))), scheme...)
	}
}

// unsealed is a v4 handshake body: its v5 encoding without the seal.
func unsealed(body []byte) []byte { return body[:len(body)-sealBytes] }

// goldenFrames enumerates the normative vectors: every frame type the
// protocol defines, each named for the version that gave it its bytes. v5
// changed the Hello, HelloOK, Batch, StreamOpen and StreamOpenOK; every
// other frame is byte-identical to v4. The v4 vectors of the frames v5
// changed, like the v1–v3 Hellos, are kept as the bytes an older peer
// sends: both tiers must answer the Hellos with an Error frame (server and
// proxy rejection tests), and v5 must reject every one of them.
func goldenFrames() []goldenFrame {
	marshalHello := func(h Hello) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			t.Helper()
			body, err := MarshalHello(h)
			if err != nil {
				t.Fatalf("MarshalHello: %v", err)
			}
			return body
		}
	}
	return []goldenFrame{
		{"v1_hello", FrameHello, legacyHello(1, 32, "basexor")},
		{"v2_hello", FrameHello, legacyHello(2, 32, "bdenc")},
		{"v3_hello", FrameHello, legacyHello(3, 32, "universal")},
		{"v4_hello", FrameHello, legacyHello(4, 32, "universal")},
		{"v4_hello_ok", FrameHelloOK, func(*testing.T) []byte {
			return unsealed(MarshalHelloOK(HelloOK{Version: 4, MetaBits: 2, BatchLimit: 4096}))
		}},
		{"v4_batch", FrameBatch, func(t *testing.T) []byte {
			rows := binary.LittleEndian.AppendUint32(nil, uint32(len(goldenTxns())))
			for _, txn := range goldenTxns() {
				rows = AppendTransaction(rows, txn)
			}
			return muxBody(traceEnvelope(t, goldenBatchID, goldenTraceID, rows))
		}},
		{"v4_stream_open", FrameStreamOpen, func(t *testing.T) []byte {
			body, err := MarshalStreamOpen(StreamOpen{ID: goldenStreamID, TxnSize: 32, Scheme: "bdenc"})
			if err != nil {
				t.Fatalf("MarshalStreamOpen: %v", err)
			}
			return unsealed(body)
		}},
		{"v4_stream_open_ok", FrameStreamOpenOK, func(*testing.T) []byte {
			return unsealed(MarshalStreamOpenOK(StreamOpenOK{ID: goldenStreamID, Status: StreamOK, MetaBits: 2, BatchLimit: 4096}))
		}},
		{"v4_stream_open_refused", FrameStreamOpenOK, func(*testing.T) []byte {
			return unsealed(MarshalStreamOpenOK(StreamOpenOK{ID: goldenStreamID, Status: StreamRefused, Msg: "unknown scheme \"nope\""}))
		}},
		{"v5_hello", FrameHello, marshalHello(Hello{Version: 5, TxnSize: 32, Scheme: "universal"})},
		{"v5_hello_ok", FrameHelloOK, func(*testing.T) []byte {
			return MarshalHelloOK(HelloOK{Version: 5, MetaBits: 2, BatchLimit: 4096})
		}},
		{"v5_batch", FrameBatch, func(t *testing.T) []byte {
			payload, err := MarshalBatch(goldenTxns(), 32)
			if err != nil {
				t.Fatalf("MarshalBatch: %v", err)
			}
			return muxBody(traceEnvelope(t, goldenBatchID, goldenTraceID, payload))
		}},
		{"v4_batch_reply", FrameBatchReply, func(t *testing.T) []byte {
			return muxBody(traceEnvelope(t, goldenBatchID, goldenTraceID, goldenReplyBody(t)))
		}},
		{"v4_busy", FrameBusy, func(*testing.T) []byte {
			return muxBody(MarshalBusy(goldenBatchID, 25*1000*1000)) // 25ms in ns
		}},
		{"v4_batch_error", FrameBatchError, func(*testing.T) []byte {
			return muxBody(MarshalBatchError(goldenBatchID, true, "codec fault: injected"))
		}},
		{"v5_stream_open", FrameStreamOpen, func(t *testing.T) []byte {
			body, err := MarshalStreamOpen(StreamOpen{ID: goldenStreamID, TxnSize: 32, Scheme: "bdenc"})
			if err != nil {
				t.Fatalf("MarshalStreamOpen: %v", err)
			}
			return body
		}},
		{"v5_stream_open_ok", FrameStreamOpenOK, func(*testing.T) []byte {
			return MarshalStreamOpenOK(StreamOpenOK{ID: goldenStreamID, Status: StreamOK, MetaBits: 2, BatchLimit: 4096})
		}},
		{"v5_stream_open_refused", FrameStreamOpenOK, func(*testing.T) []byte {
			return MarshalStreamOpenOK(StreamOpenOK{ID: goldenStreamID, Status: StreamRefused, Msg: "unknown scheme \"nope\""})
		}},
		{"v4_stream_close", FrameStreamClose, func(*testing.T) []byte {
			return MarshalStreamClose(goldenStreamID)
		}},
		{"v4_stream_closed", FrameStreamClosed, func(*testing.T) []byte {
			return MarshalStreamClosed(goldenStreamID, "fault budget exhausted")
		}},
		{"v4_state_snapshot", FrameStateSnapshot, func(*testing.T) []byte {
			return muxBody(nil) // the snapshot request carries no body past the stream id
		}},
		{"v4_state_restore", FrameStateRestore, func(*testing.T) []byte {
			return muxBody(MarshalStateRestore(goldenStateSeq, goldenStateBlob()))
		}},
		{"v4_state_ack_ok", FrameStateAck, func(*testing.T) []byte {
			return muxBody(MarshalStateAck(StateOK, goldenStateSeq, goldenStateBlob()))
		}},
		{"v4_state_ack_failed", FrameStateAck, func(*testing.T) []byte {
			return muxBody(MarshalStateAck(StateFailed, goldenStateSeq, []byte("restore rejected: snapshot damaged")))
		}},
		{"error", FrameError, func(*testing.T) []byte {
			return []byte("server is draining")
		}},
	}
}

// wireBytes renders the complete frame as it crosses the socket.
func wireBytes(t *testing.T, g goldenFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, g.typ, g.body(t)); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	return buf.Bytes()
}

// goldenPath is the fixture file backing one vector.
func goldenPath(name string) string {
	return filepath.Join("testdata", name+".hex")
}

// formatHex renders wire bytes as 32-hex-digit lines, so fixture diffs are
// readable and line-oriented.
func formatHex(b []byte) []byte {
	var out bytes.Buffer
	s := hex.EncodeToString(b)
	for len(s) > 32 {
		fmt.Fprintln(&out, s[:32])
		s = s[32:]
	}
	fmt.Fprintln(&out, s)
	return out.Bytes()
}

func parseHex(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	b, err := hex.DecodeString(string(bytes.Join(bytes.Fields(raw), nil)))
	if err != nil {
		tb.Fatalf("bad fixture hex: %v", err)
	}
	return b
}

// goldenWire returns the wire bytes of the named fixture.
func goldenWire(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		tb.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	return parseHex(tb, raw)
}

// goldenBody returns the named fixture's frame type and body.
func goldenBody(tb testing.TB, name string) (FrameType, []byte) {
	tb.Helper()
	ft, body, err := ReadFrame(bytes.NewReader(goldenWire(tb, name)), nil)
	if err != nil {
		tb.Fatalf("fixture %s: %v", name, err)
	}
	return ft, body
}

// v5Frames names the vectors whose bytes v5 changed: the sealed handshake
// frames and the columnar batch.
var v5Frames = []string{"v5_hello", "v5_hello_ok", "v5_batch", "v5_stream_open", "v5_stream_open_ok", "v5_stream_open_refused"}

// TestGoldenWireVectors locks the BXTP encoding down byte-for-byte: every
// frame type must marshal to exactly the
// bytes recorded under testdata/. These fixtures are normative — an
// implementation change that alters any of them is a wire format break,
// not a refactor. Regenerate deliberately with:
//
//	go test ./internal/trace -run TestGoldenWireVectors -update
func TestGoldenWireVectors(t *testing.T) {
	for _, g := range goldenFrames() {
		t.Run(g.name, func(t *testing.T) {
			wire := wireBytes(t, g)
			path := goldenPath(g.name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, formatHex(wire), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (regenerate with -update): %v", err)
			}
			want := parseHex(t, raw)
			if !bytes.Equal(wire, want) {
				t.Fatalf("wire bytes diverge from golden fixture %s\n got: %x\nwant: %x", path, wire, want)
			}
		})
	}
}

// TestGoldenVectorsParse proves the decode direction against the same
// fixed bytes: each fixture reads back as one well-formed frame of the
// recorded type, and the message-level parsers recover the original
// logical content.
func TestGoldenVectorsParse(t *testing.T) {
	for _, g := range goldenFrames() {
		t.Run(g.name, func(t *testing.T) {
			ft, body := goldenBody(t, g.name)
			if ft != g.typ {
				t.Fatalf("frame type = %#x, want %#x", byte(ft), byte(g.typ))
			}
			switch g.name {
			case "v1_hello", "v2_hello", "v3_hello", "v4_hello":
				h, err := ParseHello(body)
				if want := g.name[1] - '0'; !errors.Is(err, ErrVersion) || h.Version != want {
					t.Errorf("ParseHello = version %d, %v; want version %d, ErrVersion", h.Version, err, want)
				}
			case "v5_hello":
				h, err := ParseHello(body)
				if err != nil {
					t.Fatalf("ParseHello: %v", err)
				}
				if h.Version != ProtocolVersion || h.TxnSize != 32 || h.Scheme != "universal" {
					t.Errorf("hello = %+v", h)
				}
			case "v4_hello_ok", "v4_stream_open", "v4_stream_open_ok", "v4_stream_open_refused":
				var err error
				switch ft {
				case FrameHelloOK:
					_, err = ParseHelloOK(body)
				case FrameStreamOpen:
					_, err = ParseStreamOpen(body)
				default:
					_, err = ParseStreamOpenOK(body)
				}
				if !errors.Is(err, ErrCRC) {
					t.Errorf("v5 read the unsealed v4 frame with %v, want ErrCRC", err)
				}
			case "v4_batch":
				_, rest, _ := SplitStreamID(body)
				_, _, payload, err := OpenTraceEnvelope(rest)
				if err != nil {
					t.Fatalf("OpenTraceEnvelope: %v", err)
				}
				if _, err := ParseBatch(payload, 32, nil); !errors.Is(err, ErrBadFrame) {
					t.Errorf("v5 read the v4 batch's records as columns: %v, want ErrBadFrame", err)
				}
			case "v5_hello_ok":
				ok, err := ParseHelloOK(body)
				if err != nil {
					t.Fatalf("ParseHelloOK: %v", err)
				}
				if ok.BatchLimit != 4096 {
					t.Errorf("BatchLimit = %d, want 4096", ok.BatchLimit)
				}
			case "v5_batch", "v4_batch_reply":
				sid, rest, err := SplitStreamID(body)
				if err != nil {
					t.Fatalf("SplitStreamID: %v", err)
				}
				if sid != goldenStreamID {
					t.Errorf("stream id = %#x, want %#x", sid, uint32(goldenStreamID))
				}
				id, traceID, payload, err := OpenTraceEnvelope(rest)
				if err != nil {
					t.Fatalf("OpenTraceEnvelope: %v", err)
				}
				if id != goldenBatchID || traceID != goldenTraceID {
					t.Errorf("envelope = (%#x, %#x), want (%#x, %#x)",
						id, traceID, uint64(goldenBatchID), uint64(goldenTraceID))
				}
				if g.name == "v5_batch" {
					txns, err := ParseBatch(payload, 32, nil)
					if err != nil {
						t.Fatalf("ParseBatch: %v", err)
					}
					if len(txns) != 2 {
						t.Fatalf("parsed %d transactions, want 2", len(txns))
					}
				} else {
					reply, err := ParseBatchReply(payload, 32, 1)
					if err != nil {
						t.Fatalf("ParseBatchReply: %v", err)
					}
					if reply.Stats != goldenStats() {
						t.Errorf("stats = %+v, want %+v", reply.Stats, goldenStats())
					}
				}
			case "v4_busy":
				sid, rest, err := SplitStreamID(body)
				if err != nil {
					t.Fatalf("SplitStreamID: %v", err)
				}
				id, retry, err := ParseBusy(rest)
				if err != nil {
					t.Fatalf("ParseBusy: %v", err)
				}
				if sid != goldenStreamID || id != goldenBatchID || retry.Milliseconds() != 25 {
					t.Errorf("busy = (%#x, %#x, %v)", sid, id, retry)
				}
			case "v4_batch_error":
				sid, rest, err := SplitStreamID(body)
				if err != nil {
					t.Fatalf("SplitStreamID: %v", err)
				}
				id, reset, msg, err := ParseBatchError(rest)
				if err != nil {
					t.Fatalf("ParseBatchError: %v", err)
				}
				if sid != goldenStreamID || id != goldenBatchID || !reset || msg != "codec fault: injected" {
					t.Errorf("batch-error = (%#x, %#x, %v, %q)", sid, id, reset, msg)
				}
			case "v5_stream_open":
				o, err := ParseStreamOpen(body)
				if err != nil {
					t.Fatalf("ParseStreamOpen: %v", err)
				}
				if o.ID != goldenStreamID || o.TxnSize != 32 || o.Scheme != "bdenc" {
					t.Errorf("stream-open = %+v", o)
				}
			case "v5_stream_open_ok":
				ok, err := ParseStreamOpenOK(body)
				if err != nil {
					t.Fatalf("ParseStreamOpenOK: %v", err)
				}
				if ok.ID != goldenStreamID || ok.Status != StreamOK || ok.MetaBits != 2 || ok.BatchLimit != 4096 {
					t.Errorf("stream-open-ok = %+v", ok)
				}
			case "v5_stream_open_refused":
				ok, err := ParseStreamOpenOK(body)
				if err != nil {
					t.Fatalf("ParseStreamOpenOK: %v", err)
				}
				if ok.ID != goldenStreamID || ok.Status != StreamRefused || ok.Msg != "unknown scheme \"nope\"" {
					t.Errorf("stream-open-ok = %+v", ok)
				}
			case "v4_stream_close":
				sid, err := ParseStreamClose(body)
				if err != nil {
					t.Fatalf("ParseStreamClose: %v", err)
				}
				if sid != goldenStreamID {
					t.Errorf("stream-close sid = %#x, want %#x", sid, uint32(goldenStreamID))
				}
			case "v4_stream_closed":
				sid, msg, err := ParseStreamClosed(body)
				if err != nil {
					t.Fatalf("ParseStreamClosed: %v", err)
				}
				if sid != goldenStreamID || msg != "fault budget exhausted" {
					t.Errorf("stream-closed = (%#x, %q)", sid, msg)
				}
			case "v4_state_snapshot":
				sid, rest, err := SplitStreamID(body)
				if err != nil {
					t.Fatalf("SplitStreamID: %v", err)
				}
				if sid != goldenStreamID || len(rest) != 0 {
					t.Errorf("state-snapshot = (%#x, %d trailing bytes)", sid, len(rest))
				}
			case "v4_state_restore":
				sid, rest, err := SplitStreamID(body)
				if err != nil {
					t.Fatalf("SplitStreamID: %v", err)
				}
				seq, state, err := ParseStateRestore(rest)
				if err != nil {
					t.Fatalf("ParseStateRestore: %v", err)
				}
				if sid != goldenStreamID || seq != goldenStateSeq || !bytes.Equal(state, goldenStateBlob()) {
					t.Errorf("state-restore = (%#x, %#x, %x)", sid, seq, state)
				}
			case "v4_state_ack_ok":
				sid, rest, err := SplitStreamID(body)
				if err != nil {
					t.Fatalf("SplitStreamID: %v", err)
				}
				status, seq, payload, err := ParseStateAck(rest)
				if err != nil {
					t.Fatalf("ParseStateAck: %v", err)
				}
				if sid != goldenStreamID || status != StateOK || seq != goldenStateSeq || !bytes.Equal(payload, goldenStateBlob()) {
					t.Errorf("state-ack = (%#x, %d, %#x, %x)", sid, status, seq, payload)
				}
			case "v4_state_ack_failed":
				sid, rest, err := SplitStreamID(body)
				if err != nil {
					t.Fatalf("SplitStreamID: %v", err)
				}
				status, seq, payload, err := ParseStateAck(rest)
				if err != nil {
					t.Fatalf("ParseStateAck: %v", err)
				}
				if sid != goldenStreamID || status != StateFailed || seq != goldenStateSeq || string(payload) != "restore rejected: snapshot damaged" {
					t.Errorf("state-ack = (%#x, %d, %#x, %q)", sid, status, seq, payload)
				}
			case "error":
				if string(body) != "server is draining" {
					t.Errorf("error body = %q", body)
				}
			}
		})
	}
}
