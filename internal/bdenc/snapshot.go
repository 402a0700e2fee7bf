package bdenc

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/hpca18/bxt/internal/snap"
)

// Snapshot framing for the BD repositories (scheme.Stateful). The encoder's
// exact-match index is derived from repo[:count], so it is rebuilt on
// Restore rather than written. The body is fixed-size, little-endian:
//
//	threshold uint32
//	count     uint32   encoder repository fill
//	next      uint32   encoder FIFO cursor
//	decCount  uint32   decoder repository fill
//	decNext   uint32   decoder FIFO cursor
//	repo      [64]uint64
//	decRepo   [64]uint64
const (
	snapshotMagic   = "BXBD"
	snapshotVersion = 1
	snapshotBody    = 5*4 + 2*RepositoryEntries*8
)

// Snapshot implements scheme.Stateful: it writes both repositories and
// their FIFO cursors so a Restore-d instance continues the encode and
// decode streams byte-identically.
func (b *BD) Snapshot(w io.Writer) error {
	body := make([]byte, snapshotBody)
	binary.LittleEndian.PutUint32(body[0:], uint32(b.Threshold))
	binary.LittleEndian.PutUint32(body[4:], uint32(b.count))
	binary.LittleEndian.PutUint32(body[8:], uint32(b.next))
	binary.LittleEndian.PutUint32(body[12:], uint32(b.decCount))
	binary.LittleEndian.PutUint32(body[16:], uint32(b.decNext))
	off := 20
	for _, word := range b.repo {
		binary.LittleEndian.PutUint64(body[off:], word)
		off += 8
	}
	for _, word := range b.decRepo {
		binary.LittleEndian.PutUint64(body[off:], word)
		off += 8
	}
	return snap.Write(w, snapshotMagic, snapshotVersion, body)
}

// Restore implements scheme.Stateful. The snapshot is fully validated —
// framing, CRC, cursor invariants — before any field is applied, so a
// failed Restore leaves the receiver unchanged.
func (b *BD) Restore(r io.Reader) error {
	body, err := snap.Read(r, snapshotMagic, snapshotVersion)
	if err != nil {
		return fmt.Errorf("bdenc: %w", err)
	}
	if len(body) != snapshotBody {
		return fmt.Errorf("bdenc: %w: body is %d bytes, want %d", snap.ErrSnapshot, len(body), snapshotBody)
	}
	threshold := int(binary.LittleEndian.Uint32(body[0:]))
	count := int(binary.LittleEndian.Uint32(body[4:]))
	next := int(binary.LittleEndian.Uint32(body[8:]))
	decCount := int(binary.LittleEndian.Uint32(body[12:]))
	decNext := int(binary.LittleEndian.Uint32(body[16:]))
	if threshold < 1 || threshold > WordBytes*8 {
		return fmt.Errorf("bdenc: %w: threshold %d out of [1, %d]", snap.ErrSnapshot, threshold, WordBytes*8)
	}
	if err := checkCursors(count, next); err != nil {
		return fmt.Errorf("bdenc: %w: encoder %v", snap.ErrSnapshot, err)
	}
	if err := checkCursors(decCount, decNext); err != nil {
		return fmt.Errorf("bdenc: %w: decoder %v", snap.ErrSnapshot, err)
	}
	b.Threshold = threshold
	b.count, b.next = count, next
	b.decCount, b.decNext = decCount, decNext
	off := 20
	for i := range b.repo {
		b.repo[i] = binary.LittleEndian.Uint64(body[off:])
		off += 8
	}
	for i := range b.decRepo {
		b.decRepo[i] = binary.LittleEndian.Uint64(body[off:])
		off += 8
	}
	b.reindex()
	return nil
}

// checkCursors enforces the FIFO invariant insert maintains: the fill
// grows with the cursor until the repository wraps, after which the fill
// stays at capacity and only the cursor cycles.
func checkCursors(count, next int) error {
	if count < 0 || count > RepositoryEntries || next < 0 || next >= RepositoryEntries {
		return fmt.Errorf("cursors (count %d, next %d) out of range", count, next)
	}
	if count < RepositoryEntries && count != next {
		return fmt.Errorf("cursors (count %d, next %d) violate the FIFO invariant", count, next)
	}
	return nil
}
