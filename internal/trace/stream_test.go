package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{{}, {1, 2, 3}, bytes.Repeat([]byte{0xAB}, 1000)}
	types := []FrameType{FrameHello, FrameBatch, FrameError}
	for i, b := range bodies {
		if err := WriteFrame(&buf, types[i], b); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	var scratch []byte
	for i, want := range bodies {
		ft, body, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if ft != types[i] || !bytes.Equal(body, want) {
			t.Fatalf("frame %d: got type %#x body %v", i, ft, body)
		}
	}
	if _, _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("ReadFrame on empty stream: %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Truncated header.
	_, _, err := ReadFrame(bytes.NewReader([]byte{1, 0}), nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated header: %v, want ErrBadFrame", err)
	}
	// Zero-length frame (no type byte).
	_, _, err = ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero-length frame: %v, want ErrBadFrame", err)
	}
	// Hostile length prefix.
	_, _, err = ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("hostile length: %v, want ErrBadFrame", err)
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameBatch, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-1]
	_, _, err = ReadFrame(bytes.NewReader(short), nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated body: %v, want ErrBadFrame", err)
	}
}

// TestFrameWriteOneCall checks a frame built in place — BeginFrame, the
// body appended, SealFrame — and one built by AppendFrame carry exactly
// the bytes WriteFrame writes, so a whole frame goes out in one Write.
func TestFrameWriteOneCall(t *testing.T) {
	var plain bytes.Buffer
	var inPlace, appended []byte
	for i, n := range []int{0, 3, 9, 12, 40, 1, 15, 0, 100} {
		body := bytes.Repeat([]byte{byte(i + 1)}, n)
		ft := FrameBatch + FrameType(i)
		if err := WriteFrame(&plain, ft, body); err != nil {
			t.Fatal(err)
		}
		start := len(inPlace)
		inPlace = append(BeginFrame(inPlace), body...)
		if err := SealFrame(inPlace[start:], ft); err != nil {
			t.Fatal(err)
		}
		var err error
		if appended, err = AppendFrame(appended, ft, body); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(inPlace, plain.Bytes()) || !bytes.Equal(appended, plain.Bytes()) {
		t.Fatalf("in-place framing diverges:\n in place %x\n appended %x\n     want %x", inPlace, appended, plain.Bytes())
	}
	if err := SealFrame(make([]byte, FrameHeaderBytes-1), FrameBatch); !errors.Is(err, ErrBadFrame) {
		t.Errorf("sealing a frame with no header room: %v, want ErrBadFrame", err)
	}
	if err := SealFrame(make([]byte, 4+MaxFrameBytes+1), FrameBatch); !errors.Is(err, ErrBadFrame) {
		t.Errorf("sealing an oversized frame: %v, want ErrBadFrame", err)
	}
}

// TestFrameBufferReuse is the grow-once regression test: the FrameReader's
// buffer grows at the first frame that does not fit it, to twice that
// frame, and frames no larger than the biggest seen so far are then read
// into the same backing array.
func TestFrameBufferReuse(t *testing.T) {
	var wire bytes.Buffer
	sizes := []int{20, 8499, 8499, 100, 8499, 8499}
	for _, n := range sizes {
		if err := WriteFrame(&wire, FrameBatchReply, bytes.Repeat([]byte{0x5A}, n)); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&wire)
	if _, _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if got := cap(fr.buf); got != helloBufBytes {
		t.Fatalf("reader holds %d bytes after a Hello-sized frame, want %d", got, helloBufBytes)
	}
	var first *byte
	for i, n := range sizes[1:] {
		ft, body, err := fr.Next()
		if err != nil || ft != FrameBatchReply || len(body) != n {
			t.Fatalf("frame %d: type %#x, %d bytes, err %v", i, ft, len(body), err)
		}
		if want := &fr.buf[0]; i == 0 {
			first = want
			if got, want := cap(fr.buf), max(minFrameBufBytes, 2*(n+FrameHeaderBytes)); got != want {
				t.Fatalf("grown buffer holds %d bytes, want %d", got, want)
			}
		} else if want != first {
			t.Fatalf("frame %d (%d bytes) was read into a new buffer", i, n)
		}
		if whole := fr.Frame(); len(whole) != FrameHeaderBytes+n || &whole[FrameHeaderBytes] != &body[0] {
			t.Fatalf("frame %d: Frame() is %d bytes, not the header plus the body Next returned", i, len(whole))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("Next at the end of the stream: %v, want io.EOF", err)
	}
}

// readCounter counts the Read calls made on a reader.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReaderBuffered pins Buffered and Ready: after Next Buffered
// holds exactly the bytes read past the returned frame, the frames there
// are returned without another Read while Ready reports one, and once they
// are used up it holds only the start of the frame still arriving, which
// Ready does not count — while every frame returned earlier stays intact
// in the buffer.
func TestFrameReaderBuffered(t *testing.T) {
	var wire bytes.Buffer
	for i := byte(1); i <= 3; i++ {
		if err := WriteFrame(&wire, FrameBatchReply, bytes.Repeat([]byte{i}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	stream := wire.Bytes()
	frameLen := len(stream) / 3
	src := &readCounter{r: bytes.NewReader(stream[:len(stream)-10])}
	fr := NewFrameReader(src)
	_, first, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fr.Buffered(), stream[frameLen:len(stream)-10]; !bytes.Equal(got, want) {
		t.Fatalf("Buffered after the first frame holds %d bytes, want the %d read past it", len(got), len(want))
	}
	if !fr.Ready() {
		t.Fatal("Ready is false with the second frame whole in the buffer")
	}
	reads := src.reads
	if _, body, err := fr.Next(); err != nil || !bytes.Equal(body, bytes.Repeat([]byte{2}, 40)) || src.reads != reads {
		t.Fatalf("second frame: %x, %v after %d more reads; want it from the buffer", body, err, src.reads-reads)
	}
	if got, want := fr.Buffered(), stream[2*frameLen:len(stream)-10]; !bytes.Equal(got, want) {
		t.Fatalf("Buffered holds %x, want the partial third frame %x", got, want)
	}
	if fr.Ready() {
		t.Fatal("Ready is true with only part of the third frame buffered")
	}
	if !bytes.Equal(first, bytes.Repeat([]byte{1}, 40)) {
		t.Fatal("the first frame's body changed while later frames were read")
	}
}

// TestFrameReaderResetStartsClean checks that a FrameReader moved onto a
// new connection keeps its grown buffer but nothing the old connection
// sent: no unread input, no stale read error.
func TestFrameReaderResetStartsClean(t *testing.T) {
	var old bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&old, FrameBatch, bytes.Repeat([]byte{0xEE}, 3000)); err != nil {
			t.Fatal(err)
		}
	}
	old.WriteString("trailing garbage")
	fr := NewFrameReader(&old)
	if _, _, err := fr.Next(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	grown := cap(fr.buf)
	for {
		if _, _, err := fr.Next(); err != nil {
			break // the garbage tail fails the old stream
		}
	}
	var fresh bytes.Buffer
	if err := WriteFrame(&fresh, FrameHelloOK, []byte{1}); err != nil {
		t.Fatal(err)
	}
	fr.Reset(&fresh)
	if fr.Frame() != nil {
		t.Fatal("Reset kept the old connection's last frame")
	}
	if ft, body, err := fr.Next(); err != nil || ft != FrameHelloOK || !bytes.Equal(body, []byte{1}) {
		t.Fatalf("reset reader read type %#x body %x, %v; want the new connection's HelloOK", ft, body, err)
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("reset reader after the new connection's only frame: %v, want io.EOF", err)
	}
	if cap(fr.buf) != grown {
		t.Fatalf("Reset dropped the %d-byte buffer (now %d)", grown, cap(fr.buf))
	}
}

// TestFrameZeroAlloc pins the framing hot path: building frames in place
// with BeginFrame/SealFrame in a reused buffer and reading them back
// through a FrameReader allocates nothing once the buffers have grown.
func TestFrameZeroAlloc(t *testing.T) {
	var wire bytes.Buffer
	body := bytes.Repeat([]byte{0xC3}, 2048)
	out := make([]byte, 0, 2*(FrameHeaderBytes+len(body)))
	fr := NewFrameReader(&wire)
	var err error
	round := func() {
		wire.Reset()
		out = out[:0]
		for _, ft := range []FrameType{FrameBatch, FrameBatchReply} {
			start := len(out)
			out = append(BeginFrame(out), body...)
			if e := SealFrame(out[start:], ft); e != nil {
				err = e
			}
		}
		wire.Write(out)
		fr.Reset(&wire)
		for i := 0; i < 2; i++ {
			if _, _, e := fr.Next(); e != nil {
				err = e
			}
		}
	}
	round() // grow the reader's buffer
	allocs := testing.AllocsPerRun(1000, round)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per in-place frame round trip, want 0", allocs)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Version: ProtocolVersion, TxnSize: 32, Scheme: "universal"}
	body, err := MarshalHello(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("ParseHello = %+v, want %+v", got, h)
	}

	for _, bad := range []Hello{
		{TxnSize: 0, Scheme: "x"},
		{TxnSize: MaxTxnBytes + 1, Scheme: "x"},
		{TxnSize: 32, Scheme: ""},
	} {
		if _, err := MarshalHello(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("MarshalHello(%+v): %v, want ErrBadFrame", bad, err)
		}
	}
	if _, err := ParseHello([]byte("nope")); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short hello: %v, want ErrBadFrame", err)
	}
	body[0] = 'Z'
	if _, err := ParseHello(body); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad magic: %v, want ErrBadFrame", err)
	}
}

func TestHelloOKRoundTrip(t *testing.T) {
	ok := HelloOK{Version: ProtocolVersion, MetaBits: 64, BatchLimit: 4096}
	got, err := ParseHelloOK(MarshalHelloOK(ok))
	if err != nil {
		t.Fatal(err)
	}
	if got != ok {
		t.Fatalf("ParseHelloOK = %+v, want %+v", got, ok)
	}
	if _, err := ParseHelloOK([]byte{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short hello-ok: %v, want ErrBadFrame", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	const txnSize = 32
	txns := make([]Transaction, 5)
	for i := range txns {
		data := make([]byte, txnSize)
		for j := range data {
			data[j] = byte(i*txnSize + j)
		}
		txns[i] = Transaction{Addr: uint64(i) * 32, Kind: Kind(i % 2), Data: data}
	}
	body, err := MarshalBatch(txns, txnSize)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBatch(body, txnSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(txns) {
		t.Fatalf("ParseBatch returned %d txns, want %d", len(got), len(txns))
	}
	for i := range txns {
		if got[i].Addr != txns[i].Addr || got[i].Kind != txns[i].Kind || !bytes.Equal(got[i].Data, txns[i].Data) {
			t.Fatalf("txn %d mismatch: %+v != %+v", i, got[i], txns[i])
		}
	}

	// Count/length mismatch.
	if _, err := ParseBatch(body[:len(body)-1], txnSize, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short batch: %v, want ErrBadFrame", err)
	}
	// Payload length mismatch at marshal time.
	bad := []Transaction{{Data: make([]byte, 16)}}
	if _, err := MarshalBatch(bad, txnSize); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad payload size: %v, want ErrBadFrame", err)
	}
	// Invalid kind byte in the kind column, past the addresses.
	body[4+8*len(txns)+1] = 9
	if _, err := ParseBatch(body, txnSize, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad kind: %v, want ErrBadFrame", err)
	}
}

func TestBatchReplyRoundTrip(t *testing.T) {
	const txnSize, metaBytes = 32, 4
	reply := BatchReply{
		Stats: BatchStats{
			Transactions: 2, DataBits: 512,
			OnesBefore: 100, OnesAfter: 40,
			TogglesBefore: 80, TogglesAfter: 50,
			BaselinePJ: 123.5, EncodedPJ: 99.25,
		},
	}
	for i := 0; i < 2; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, txnSize)
		meta := bytes.Repeat([]byte{byte(0xF0 | i)}, metaBytes)
		reply.Records = append(reply.Records, EncodedRecord{Data: data, Meta: meta})
	}
	body, err := MarshalBatchReply(reply, txnSize, metaBytes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBatchReply(body, txnSize, metaBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != reply.Stats {
		t.Fatalf("stats mismatch: %+v != %+v", got.Stats, reply.Stats)
	}
	for i := range reply.Records {
		if !bytes.Equal(got.Records[i].Data, reply.Records[i].Data) ||
			!bytes.Equal(got.Records[i].Meta, reply.Records[i].Meta) {
			t.Fatalf("record %d mismatch", i)
		}
	}

	if _, err := ParseBatchReply(body[:10], txnSize, metaBytes); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short reply: %v, want ErrBadFrame", err)
	}
	if _, err := ParseBatchReply(body, txnSize, metaBytes+1); !errors.Is(err, ErrBadFrame) {
		t.Errorf("misaligned records: %v, want ErrBadFrame", err)
	}
}

func TestBatchStatsHelpers(t *testing.T) {
	s := BatchStats{OnesBefore: 10, OnesAfter: 4, BaselinePJ: 7, EncodedPJ: 5}
	if s.OnesSaved() != 6 {
		t.Errorf("OnesSaved = %d, want 6", s.OnesSaved())
	}
	if s.EnergySavedPJ() != 2 {
		t.Errorf("EnergySavedPJ = %v, want 2", s.EnergySavedPJ())
	}
	worse := BatchStats{OnesBefore: 4, OnesAfter: 10}
	if worse.OnesSaved() != 0 {
		t.Errorf("OnesSaved on regression = %d, want 0", worse.OnesSaved())
	}
	var sum BatchStats
	sum.Add(s)
	sum.Add(s)
	if sum.OnesBefore != 20 || sum.BaselinePJ != 14 {
		t.Errorf("Add accumulated %+v", sum)
	}
}

// TestBatchEnvelopeRoundTrip covers the batch envelope: seal + open
// round-trips the batch id, trace id and payload, every flipped payload,
// trace-id or CRC bit is caught (ErrCRC, with the carried batch id still
// returned best-effort), and short bodies are rejected.
func TestBatchEnvelopeRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	body := AppendTraceEnvelope(nil, 0xDEADBEEFCAFE, 0xfeedc0de)
	body = append(body, payload...)
	if err := SealBatchEnvelope(body); err != nil {
		t.Fatalf("SealBatchEnvelope: %v", err)
	}
	id, traceID, got, err := OpenTraceEnvelope(body)
	if err != nil {
		t.Fatalf("OpenTraceEnvelope: %v", err)
	}
	if id != 0xDEADBEEFCAFE || traceID != 0xfeedc0de || !bytes.Equal(got, payload) {
		t.Fatalf("OpenTraceEnvelope = id %#x trace %#x payload %v", id, traceID, got)
	}

	// Every single-bit corruption past the CRC field must be detected.
	for bit := 0; bit < (8+len(payload))*8; bit++ {
		c := append([]byte(nil), body...)
		c[12+bit/8] ^= 1 << (bit % 8)
		if _, _, _, err := OpenTraceEnvelope(c); !errors.Is(err, ErrCRC) || !errors.Is(err, ErrBadFrame) {
			t.Fatalf("corrupt bit %d: err = %v, want ErrCRC wrapping ErrBadFrame", bit, err)
		}
	}
	// A corrupt CRC field is also a CRC mismatch, and the id survives.
	c := append([]byte(nil), body...)
	c[9] ^= 0x40
	if id, _, _, err := OpenTraceEnvelope(c); !errors.Is(err, ErrCRC) || id != 0xDEADBEEFCAFE {
		t.Fatalf("corrupt crc: id %#x err %v", id, err)
	}
	// Bodies shorter than the sealed envelope are malformed, not CRC
	// mismatches.
	for n := 0; n < 12; n++ {
		if _, _, _, err := OpenTraceEnvelope(body[:n]); !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrCRC) {
			t.Fatalf("%d-byte body: err = %v, want plain ErrBadFrame", n, err)
		}
		if err := SealBatchEnvelope(body[:n]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("SealBatchEnvelope on %d bytes: %v, want ErrBadFrame", n, err)
		}
	}
}

// TestBusyRoundTrip covers the Busy frame body, including hint
// saturation at the uint32 millisecond ceiling and negative clamping.
func TestBusyRoundTrip(t *testing.T) {
	id, after, err := ParseBusy(MarshalBusy(42, 1500*time.Millisecond))
	if err != nil || id != 42 || after != 1500*time.Millisecond {
		t.Fatalf("ParseBusy = (%d, %v, %v)", id, after, err)
	}
	if _, after, _ = ParseBusy(MarshalBusy(1, -time.Second)); after != 0 {
		t.Errorf("negative hint round-tripped to %v, want 0", after)
	}
	if _, after, _ = ParseBusy(MarshalBusy(1, 100*24*time.Hour)); after != time.Duration(1<<32-1)*time.Millisecond {
		t.Errorf("huge hint round-tripped to %v, want saturation at the uint32 ms ceiling", after)
	}
	if _, _, err := ParseBusy([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short busy body: %v, want ErrBadFrame", err)
	}
}

// TestBatchErrorRoundTrip covers the BatchError frame body and its
// codec-reset flag.
func TestBatchErrorRoundTrip(t *testing.T) {
	for _, reset := range []bool{false, true} {
		id, gotReset, msg, err := ParseBatchError(MarshalBatchError(7, reset, "scheme bdenc panicked"))
		if err != nil || id != 7 || gotReset != reset || msg != "scheme bdenc panicked" {
			t.Fatalf("ParseBatchError(reset=%v) = (%d, %v, %q, %v)", reset, id, gotReset, msg, err)
		}
	}
	if _, _, _, err := ParseBatchError([]byte{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short batch-error body: %v, want ErrBadFrame", err)
	}
}

// TestTransactionRecordRoundTrip pins the single-record wire codec: a
// record appended by AppendTransaction parses back identically through
// ParseTransaction, and through a one-transaction batch, whose columns
// are that one record.
func TestTransactionRecordRoundTrip(t *testing.T) {
	txn := Transaction{Addr: 0xdeadbeef01, Kind: Write, Data: bytes.Repeat([]byte{7, 1}, 16)}
	rec := AppendTransaction(nil, txn)
	if len(rec) != 9+32 {
		t.Fatalf("record is %d bytes, want %d", len(rec), 9+32)
	}
	got, rest, err := ParseTransaction(rec, 32)
	if err != nil {
		t.Fatalf("ParseTransaction: %v", err)
	}
	if len(rest) != 0 || got.Addr != txn.Addr || got.Kind != txn.Kind || !bytes.Equal(got.Data, txn.Data) {
		t.Fatalf("round trip mismatch: %+v rest %d", got, len(rest))
	}

	body, err := MarshalBatch([]Transaction{txn}, 32)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBatch(body, 32, nil)
	if err != nil {
		t.Fatalf("ParseBatch: %v", err)
	}
	if len(parsed) != 1 || parsed[0].Addr != txn.Addr || parsed[0].Kind != txn.Kind ||
		!bytes.Equal(parsed[0].Data, txn.Data) {
		t.Fatalf("batch round trip mismatch: %+v", parsed)
	}

	if _, _, err := ParseTransaction(rec[:10], 32); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated record: err = %v, want ErrBadFrame", err)
	}
	rec[8] = 0xee
	if _, _, err := ParseTransaction(rec, 32); !errors.Is(err, ErrBadFrame) {
		t.Errorf("invalid kind: err = %v, want ErrBadFrame", err)
	}
}

// TestAppendBatchReuse exercises the grow-once marshalling paths: an empty
// destination, a warm destination reused across calls (no growth), a
// destination with a preserved prefix, and the per-record size error.
func TestAppendBatchReuse(t *testing.T) {
	txns := []Transaction{
		{Addr: 1, Kind: Read, Data: bytes.Repeat([]byte{1}, 32)},
		{Addr: 2, Kind: Write, Data: bytes.Repeat([]byte{2}, 32)},
	}
	want, err := MarshalBatch(txns, 32)
	if err != nil {
		t.Fatal(err)
	}

	buf, err := AppendBatch(nil, txns, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("AppendBatch(nil) diverges from MarshalBatch")
	}
	warm, err := AppendBatch(buf[:0], txns, 32)
	if err != nil {
		t.Fatal(err)
	}
	if &warm[0] != &buf[0] {
		t.Error("warm AppendBatch reallocated despite sufficient capacity")
	}
	if !bytes.Equal(warm, want) {
		t.Fatal("warm AppendBatch diverges")
	}

	prefixed, err := AppendBatch([]byte("hdr"), txns, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prefixed[:3], []byte("hdr")) || !bytes.Equal(prefixed[3:], want) {
		t.Fatal("AppendBatch did not preserve the destination prefix")
	}

	if _, err := AppendBatch(nil, []Transaction{{Kind: Read, Data: make([]byte, 16)}}, 32); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short payload: err = %v, want ErrBadFrame", err)
	}
}
