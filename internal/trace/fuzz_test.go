package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// validTrace builds a well-formed trace byte stream for the seed corpus.
func validTrace(t *testing.T, txnSize int, txns []Transaction) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, txnSize)
	for _, txn := range txns {
		if err := w.Write(txn); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary bytes to the trace reader: no input may panic,
// and every well-formed prefix must parse into transactions that round-trip
// bit-exactly through the writer. The same bytes, read as a BXTP frame
// stream, must come out of ReadFrame identically through a plain reader
// and through the *bufio.Reader path (checkFrameReaders).
func FuzzReader(f *testing.F) {
	// Seed corpus: an empty trace, a short valid trace, and targeted
	// corruptions of each header and record field.
	empty := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, 32)
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(empty)

	sector := make([]byte, 32)
	for i := range sector {
		sector[i] = byte(i * 7)
	}
	valid := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, 32)
		for i := 0; i < 3; i++ {
			err := w.Write(Transaction{Addr: uint64(i) << 5, Kind: Kind(i % 2), Data: sector})
			if err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	f.Add(badMagic)

	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 99
	f.Add(badVersion)

	hugeSize := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeSize[5:], 1<<30)
	f.Add(hugeSize)

	// A length prefix just past MaxTxnBytes: small enough that a missing
	// bound would let the allocation happen, so the fuzz target exercises
	// the rejection path rather than the allocator.
	overSize := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(overSize[5:], MaxTxnBytes+1)
	f.Add(overSize)

	badKind := append([]byte(nil), valid...)
	badKind[9+8] = 7 // first record's kind byte
	f.Add(badKind)

	f.Add(valid[:len(valid)-5])           // truncated payload
	f.Add(valid[:9+4])                    // truncated record header
	f.Add(valid[:3])                      // truncated file header
	f.Add([]byte{})                       // empty input
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // garbage

	// State-transfer admin frames fed to the trace reader: BXTP wire bytes
	// are not a trace file and must be rejected, not misparsed.
	var stateFrames bytes.Buffer
	if err := WriteFrame(&stateFrames, FrameStateSnapshot, nil); err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&stateFrames, FrameStateRestore, MarshalStateRestore(42, sector)); err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&stateFrames, FrameStateAck, MarshalStateAck(StateOK, 42, sector)); err != nil {
		f.Fatal(err)
	}
	f.Add(stateFrames.Bytes())

	// v4 mux frames fed to the trace reader: stream lifecycle wire bytes
	// are not a trace file either.
	var muxFrames bytes.Buffer
	open, err := MarshalStreamOpen(StreamOpen{ID: 7, TxnSize: 32, Scheme: "universal"})
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&muxFrames, FrameStreamOpen, open); err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&muxFrames, FrameStreamOpenOK, MarshalStreamOpenOK(StreamOpenOK{ID: 7, MetaBits: 2, BatchLimit: 4096})); err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&muxFrames, FrameStreamClosed, MarshalStreamClosed(7, "bye")); err != nil {
		f.Fatal(err)
	}
	f.Add(muxFrames.Bytes())
	// Frame streams cut inside the second frame's header and body, and a
	// zero-length frame.
	f.Add(muxFrames.Bytes()[:len(open)+5+2])
	f.Add(muxFrames.Bytes()[:len(open)+5+7])
	f.Add([]byte{0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrameReaders(t, data)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("NewReader error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		var txns []Transaction
		for {
			txn, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("Read error %v does not wrap ErrBadTrace", err)
				}
				return
			}
			if len(txn.Data) != r.TxnSize() {
				t.Fatalf("Read returned %d-byte payload, want %d", len(txn.Data), r.TxnSize())
			}
			txns = append(txns, txn)
			if len(txns) > 1<<16 {
				return // cap work on adversarially long inputs
			}
		}
		// The stream parsed fully: re-encoding it must reproduce the
		// original bytes (the format has no redundancy to lose).
		reenc := validTrace(t, r.TxnSize(), txns)
		if !bytes.Equal(reenc, data) {
			t.Fatalf("round trip mismatch: %d bytes in, %d bytes out", len(data), len(reenc))
		}
	})
}

// checkFrameReaders reads data as a frame stream twice — ReadFrame over a
// plain io.Reader, and a FrameBuffer over a small *bufio.Reader fed in
// short reads, peeking each frame's stream id first as the mux reader
// does — and requires the same type, body and error, frame by frame, up
// to and including the first error.
func checkFrameReaders(t *testing.T, data []byte) {
	plain := bytes.NewReader(data)
	buffered := bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(data)), 16)
	var fb FrameBuffer
	for i := 0; ; i++ {
		sid, perr := PeekStreamID(buffered)
		wantT, wantBody, wantErr := ReadFrame(plain, nil)
		gotT, gotBody, gotErr := fb.ReadFrame(buffered)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("frame %d: plain reader err %v, bufio reader err %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr != io.EOF && !errors.Is(wantErr, ErrBadFrame) {
				t.Fatalf("frame %d: error %v is neither io.EOF nor ErrBadFrame", i, wantErr)
			}
			if (wantErr == io.EOF) != (gotErr == io.EOF) || errors.Is(wantErr, ErrBadFrame) != errors.Is(gotErr, ErrBadFrame) {
				t.Fatalf("frame %d: error classes differ: %v vs %v", i, wantErr, gotErr)
			}
			if wantErr == io.EOF && perr != io.EOF {
				t.Fatalf("frame %d: PeekStreamID at a clean close returned %v", i, perr)
			}
			return
		}
		if gotT != wantT || !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("frame %d: bufio reader read type %#x body %x, plain reader %#x %x", i, gotT, gotBody, wantT, wantBody)
		}
		if len(gotBody) >= 4 {
			if want := binary.LittleEndian.Uint32(gotBody); perr != nil || sid != want {
				t.Fatalf("frame %d: PeekStreamID = %d, %v; body carries stream %d", i, sid, perr, want)
			}
		} else if !errors.Is(perr, ErrBadFrame) {
			t.Fatalf("frame %d: PeekStreamID on a %d-byte body returned %v", i, len(gotBody), perr)
		}
	}
}

// FuzzStateFrames feeds arbitrary bytes to the state-transfer frame
// parsers: no input may panic, every error must wrap ErrBadFrame, and any
// body that parses must re-marshal to exactly the input bytes (the
// encodings carry no redundancy the round trip could lose).
func FuzzStateFrames(f *testing.F) {
	blob := make([]byte, 24)
	for i := range blob {
		blob[i] = byte(0x5A ^ i*3)
	}
	f.Add(MarshalStateRestore(42, blob))
	f.Add(MarshalStateRestore(0, nil))
	f.Add(MarshalStateAck(StateOK, 42, blob))
	f.Add(MarshalStateAck(StateFailed, 42, []byte("restore rejected: snapshot damaged")))
	f.Add(MarshalStateAck(StateUnsupported, 0, nil))
	f.Add([]byte{})
	f.Add(blob[:7]) // shorter than either fixed prefix
	f.Add(blob[:8]) // a valid restore body but a truncated ack body

	f.Fuzz(func(t *testing.T, body []byte) {
		if seq, state, err := ParseStateRestore(body); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("ParseStateRestore error %v does not wrap ErrBadFrame", err)
			}
		} else if !bytes.Equal(MarshalStateRestore(seq, state), body) {
			t.Fatalf("state-restore round trip diverged for %x", body)
		}
		if status, seq, payload, err := ParseStateAck(body); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("ParseStateAck error %v does not wrap ErrBadFrame", err)
			}
		} else if !bytes.Equal(MarshalStateAck(status, seq, payload), body) {
			t.Fatalf("state-ack round trip diverged for %x", body)
		}
	})
}

// FuzzMuxFrames feeds arbitrary bytes to the v4 stream-frame parsers: no
// input may panic, every error must wrap ErrBadFrame, and any body that
// parses must re-marshal to exactly the input bytes.
func FuzzMuxFrames(f *testing.F) {
	open, err := MarshalStreamOpen(StreamOpen{ID: 7, TxnSize: 32, Scheme: "universal"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(open)
	f.Add(MarshalStreamOpenOK(StreamOpenOK{ID: 7, Status: StreamOK, MetaBits: 2, BatchLimit: 4096}))
	f.Add(MarshalStreamOpenOK(StreamOpenOK{ID: 7, Status: StreamRefused, Msg: "unknown scheme"}))
	f.Add(MarshalStreamClose(7))
	f.Add(MarshalStreamClosed(7, "fault budget exhausted"))
	f.Add(AppendStreamID(nil, 7))
	f.Add([]byte{})
	f.Add(open[:3]) // shorter than the stream-id prefix

	f.Fuzz(func(t *testing.T, body []byte) {
		if o, err := ParseStreamOpen(body); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("ParseStreamOpen error %v does not wrap ErrBadFrame", err)
			}
		} else {
			re, err := MarshalStreamOpen(o)
			if err != nil {
				t.Fatalf("MarshalStreamOpen rejected a parsed open: %v", err)
			}
			if !bytes.Equal(re, body) {
				t.Fatalf("stream-open round trip diverged for %x", body)
			}
		}
		if ok, err := ParseStreamOpenOK(body); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("ParseStreamOpenOK error %v does not wrap ErrBadFrame", err)
			}
		} else if ok.Status == StreamOK || ok.Status == StreamRefused {
			// Unknown status bytes parse as refusals with the remainder as
			// message but re-marshal through the refusal branch, so only
			// the defined statuses round-trip bit-exactly.
			if !bytes.Equal(MarshalStreamOpenOK(ok), body) {
				t.Fatalf("stream-open-ok round trip diverged for %x", body)
			}
		}
		if sid, err := ParseStreamClose(body); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("ParseStreamClose error %v does not wrap ErrBadFrame", err)
			}
		} else if !bytes.Equal(MarshalStreamClose(sid), body) {
			t.Fatalf("stream-close round trip diverged for %x", body)
		}
		if sid, msg, err := ParseStreamClosed(body); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("ParseStreamClosed error %v does not wrap ErrBadFrame", err)
			}
		} else if !bytes.Equal(MarshalStreamClosed(sid, msg), body) {
			t.Fatalf("stream-closed round trip diverged for %x", body)
		}
		if sid, rest, err := SplitStreamID(body); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("SplitStreamID error %v does not wrap ErrBadFrame", err)
			}
		} else if !bytes.Equal(append(AppendStreamID(nil, sid), rest...), body) {
			t.Fatalf("stream-id prefix round trip diverged for %x", body)
		}
	})
}
