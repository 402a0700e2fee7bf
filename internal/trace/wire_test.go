package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The wire helpers below serve the package's tests only: the serving code
// builds and parses frames in place (AppendBatch, ParseBatch,
// ParseBatchReplyInto, FrameReader.Reset).

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	fr := new(FrameReader)
	fr.Reset(r)
	return fr
}

// AppendTransaction appends t in the trace record encoding (addr, kind,
// payload) and returns the extended slice.
func AppendTransaction(dst []byte, t Transaction) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, t.Addr)
	dst = append(dst, byte(t.Kind))
	return append(dst, t.Data...)
}

// ParseTransaction decodes one txnSize-byte record from the front of b,
// returning the transaction and the remaining bytes. The returned Data
// aliases b.
func ParseTransaction(b []byte, txnSize int) (Transaction, []byte, error) {
	n := batchColumnBytes + txnSize
	if len(b) < n {
		return Transaction{}, nil, fmt.Errorf("%w: %d-byte record needs %d bytes, have %d", ErrBadFrame, txnSize, n, len(b))
	}
	kind := Kind(b[8])
	if kind != Read && kind != Write {
		return Transaction{}, nil, fmt.Errorf("%w: invalid transaction kind %d", ErrBadFrame, b[8])
	}
	t := Transaction{
		Addr: binary.LittleEndian.Uint64(b[:8]),
		Kind: kind,
		Data: b[batchColumnBytes:n],
	}
	return t, b[n:], nil
}

// MarshalBatch encodes txns as a Batch frame body. Every payload must be
// txnSize bytes.
func MarshalBatch(txns []Transaction, txnSize int) ([]byte, error) {
	return AppendBatch(make([]byte, 0, 4+len(txns)*(batchColumnBytes+txnSize)), txns, txnSize)
}

// OnesSaved returns the 1 values removed by encoding (0 when encoding adds
// ones, as metadata-bearing schemes can on hostile data).
func (s BatchStats) OnesSaved() uint64 {
	if s.OnesAfter >= s.OnesBefore {
		return 0
	}
	return s.OnesBefore - s.OnesAfter
}

// MarshalBatchReply encodes r as a BatchReply frame body. Every record must
// carry txnSize data bytes and metaBytes metadata bytes.
func MarshalBatchReply(r BatchReply, txnSize, metaBytes int) ([]byte, error) {
	body := make([]byte, 0, batchStatsBytes+len(r.Records)*(txnSize+metaBytes))
	body = AppendBatchStats(body, r.Stats)
	for i, rec := range r.Records {
		if len(rec.Data) != txnSize || len(rec.Meta) != metaBytes {
			return nil, fmt.Errorf("%w: record %d is %d+%d bytes, reply expects %d+%d",
				ErrBadFrame, i, len(rec.Data), len(rec.Meta), txnSize, metaBytes)
		}
		body = append(body, rec.Data...)
		body = append(body, rec.Meta...)
	}
	return body, nil
}

// ParseBatchReply decodes a BatchReply frame body. Record slices alias body.
func ParseBatchReply(body []byte, txnSize, metaBytes int) (BatchReply, error) {
	return ParseBatchReplyInto(body, txnSize, metaBytes, nil)
}
