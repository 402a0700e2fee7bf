// Package snap is the shared framing for codec and bus state snapshots:
// the serialized form of a decode-stateful codec's accumulated stream
// state (bdenc's word repository, fve's frequent-value tables, dbi's bus
// history, the bus accounting wire state), captured so a serving tier can
// transfer a live session onto a warm replica that continues
// byte-identically.
//
// The framing is magic, version, length, body, trailing CRC-32C, so every
// component snapshot is self-describing and fully validated before a
// single byte of state is applied:
//
//	magic   [4]byte   component tag ("BXBD", "BXFV", …)
//	version uint16    component snapshot format revision
//	length  uint32    body length in bytes
//	body    [length]byte
//	crc     uint32    CRC-32C (Castagnoli) of everything above
//
// All integers are little-endian. Component packages own their body
// layouts; this package owns the envelope, the size bound, and the
// fail-closed decode discipline: any damage — wrong magic, version skew,
// truncation, CRC mismatch — surfaces as an error wrapping ErrSnapshot
// and the reader consumes nothing the caller could mistake for state.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// headerLen is the fixed prefix: magic + version + body length.
const headerLen = 4 + 2 + 4

// MaxBodyBytes bounds one component body. Codec and bus state is small
// (a few KiB); a length field beyond this is corruption, not state, and
// is rejected before any allocation balloons.
const MaxBodyBytes = 1 << 20

// ErrSnapshot tags every snapshot decoding failure: wrong magic,
// unsupported version, CRC mismatch, or truncation. Callers degrade to a
// fresh (Reset) instance on it; it never indicates an unusable writer.
var ErrSnapshot = errors.New("snap: invalid snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write frames body under the given magic and version and writes the
// complete snapshot to w. Magic must be exactly 4 bytes.
func Write(w io.Writer, magic string, version uint16, body []byte) error {
	if len(magic) != 4 {
		return fmt.Errorf("snap: magic %q is not 4 bytes", magic)
	}
	if len(body) > MaxBodyBytes {
		return fmt.Errorf("snap: %d-byte body exceeds the %d-byte bound", len(body), MaxBodyBytes)
	}
	header := make([]byte, headerLen)
	copy(header, magic)
	binary.LittleEndian.PutUint16(header[4:], version)
	binary.LittleEndian.PutUint32(header[6:], uint32(len(body)))
	crc := crc32.Update(0, castagnoli, header)
	crc = crc32.Update(crc, castagnoli, body)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	for _, chunk := range [][]byte{header, body, trailer[:]} {
		if _, err := w.Write(chunk); err != nil {
			return fmt.Errorf("snap: writing snapshot: %w", err)
		}
	}
	return nil
}

// Read consumes one complete snapshot from r and returns its body after
// validating magic, version, length bound, and CRC. On any failure the
// returned error wraps ErrSnapshot (I/O errors on r are returned as-is).
func Read(r io.Reader, magic string, version uint16) ([]byte, error) {
	if len(magic) != 4 {
		return nil, fmt.Errorf("snap: magic %q is not 4 bytes", magic)
	}
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(r, header); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated header", ErrSnapshot)
		}
		return nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	if string(header[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q, want %q", ErrSnapshot, header[:4], magic)
	}
	if v := binary.LittleEndian.Uint16(header[4:]); v != version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrSnapshot, v, version)
	}
	n := binary.LittleEndian.Uint32(header[6:])
	if n > MaxBodyBytes {
		return nil, fmt.Errorf("%w: %d-byte body exceeds the %d-byte bound", ErrSnapshot, n, MaxBodyBytes)
	}
	buf := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated body", ErrSnapshot)
		}
		return nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	body := buf[:n]
	wantCRC := binary.LittleEndian.Uint32(buf[n:])
	crc := crc32.Update(0, castagnoli, header)
	crc = crc32.Update(crc, castagnoli, body)
	if crc != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch (got %#08x, want %#08x)", ErrSnapshot, crc, wantCRC)
	}
	return body, nil
}
