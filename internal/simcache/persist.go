package simcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Snapshot persistence: a saved cache lets bxtd restart warm instead of
// re-learning the hot set from live traffic. The format is deliberately
// structural, not positional — entries carry content only, so a snapshot
// written under one band/shard configuration loads correctly under another
// (every entry goes through the normal Insert path, which rebuilds the hash
// and band tables for the current geometry).
//
// Layout (all integers little-endian):
//
//	magic   "BXSC"                        4 bytes
//	version uint16                        2 bytes
//	txn     uint32  transaction size      4 bytes
//	count   uint32  entry count           4 bytes
//	count × entry:
//	    src     [txn]byte
//	    dataLen uint16
//	    data    [dataLen]byte
//	    metaLen uint16
//	    meta    [metaLen]byte
//	crc     uint32  CRC-32C of everything above
const (
	snapshotMagic   = "BXSC"
	snapshotVersion = 1
	headerLen       = 4 + 2 + 4 + 4
)

// maxSnapshotBytes bounds how much a reader will buffer; a snapshot larger
// than this is rejected rather than ballooning memory on a corrupt length.
const maxSnapshotBytes = 1 << 28

// ErrSnapshot tags every snapshot decoding failure: wrong magic, unsupported
// version, CRC mismatch, truncation, or geometry mismatch. Callers degrade
// to a cold cache on it; it never indicates an unusable Cache.
var ErrSnapshot = errors.New("simcache: invalid snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes a snapshot of the cache to w, oldest entry first so a
// subsequent Load reproduces the LRU order. Shards are serialized one at a
// time under their locks; entries inserted concurrently may or may not be
// included.
func (c *Cache) Save(w io.Writer) error {
	var body bytes.Buffer
	var src []byte
	count := 0
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		for i := sh.tail; i != none; i = sh.slab[i].prev {
			data, meta := sh.record(i)
			src = appendWords(src[:0], sh.sig(i))
			body.Write(src)
			var l [2]byte
			binary.LittleEndian.PutUint16(l[:], uint16(len(data)))
			body.Write(l[:])
			body.Write(data)
			binary.LittleEndian.PutUint16(l[:], uint16(len(meta)))
			body.Write(l[:])
			body.Write(meta)
			count++
		}
		sh.mu.Unlock()
	}
	header := make([]byte, headerLen)
	copy(header, snapshotMagic)
	binary.LittleEndian.PutUint16(header[4:], snapshotVersion)
	binary.LittleEndian.PutUint32(header[6:], uint32(c.cfg.TxnBytes))
	binary.LittleEndian.PutUint32(header[10:], uint32(count))
	crc := crc32.Update(0, castagnoli, header)
	crc = crc32.Update(crc, castagnoli, body.Bytes())
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	for _, chunk := range [][]byte{header, body.Bytes(), trailer[:]} {
		if _, err := w.Write(chunk); err != nil {
			return fmt.Errorf("simcache: writing snapshot: %w", err)
		}
	}
	return nil
}

// Load replays a snapshot from r into the cache through the normal Insert
// path and returns the number of entries loaded. The whole snapshot is
// validated — magic, version, transaction size, CRC — before any entry is
// inserted; on any decoding error the cache is left cold (cleared) and an
// error wrapping ErrSnapshot is returned, so a corrupt snapshot can never
// take the gateway down or leave it half-warmed.
func (c *Cache) Load(r io.Reader) (int, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes+1))
	if err != nil {
		return 0, fmt.Errorf("simcache: reading snapshot: %w", err)
	}
	if len(raw) > maxSnapshotBytes {
		return 0, fmt.Errorf("%w: larger than %d bytes", ErrSnapshot, maxSnapshotBytes)
	}
	if len(raw) < headerLen+4 {
		return 0, fmt.Errorf("%w: %d bytes is shorter than the fixed framing", ErrSnapshot, len(raw))
	}
	if string(raw[:4]) != snapshotMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrSnapshot, raw[:4])
	}
	if v := binary.LittleEndian.Uint16(raw[4:]); v != snapshotVersion {
		return 0, fmt.Errorf("%w: version %d, want %d", ErrSnapshot, v, snapshotVersion)
	}
	if txn := binary.LittleEndian.Uint32(raw[6:]); int(txn) != c.cfg.TxnBytes {
		return 0, fmt.Errorf("%w: transaction size %d, cache uses %d", ErrSnapshot, txn, c.cfg.TxnBytes)
	}
	count := int(binary.LittleEndian.Uint32(raw[10:]))
	bodyEnd := len(raw) - 4
	wantCRC := binary.LittleEndian.Uint32(raw[bodyEnd:])
	if got := crc32.Checksum(raw[:bodyEnd], castagnoli); got != wantCRC {
		return 0, fmt.Errorf("%w: CRC mismatch (got %#08x, want %#08x)", ErrSnapshot, got, wantCRC)
	}
	p := GetProbe()
	defer PutProbe(p)
	off := headerLen
	loaded := 0
	for i := 0; i < count; i++ {
		src, dataB, metaB, next, err := readEntry(raw[:bodyEnd], off, c.cfg.TxnBytes)
		if err != nil {
			c.Clear()
			return 0, fmt.Errorf("%w: entry %d: %v", ErrSnapshot, i, err)
		}
		c.Insert(p, src, dataB, metaB)
		loaded++
		off = next
	}
	if off != bodyEnd {
		c.Clear()
		return 0, fmt.Errorf("%w: %d trailing bytes after %d entries", ErrSnapshot, bodyEnd-off, count)
	}
	return loaded, nil
}

// readEntry decodes one entry starting at off, returning its fields and the
// offset of the next entry.
func readEntry(raw []byte, off, txnBytes int) (src, data, meta []byte, next int, err error) {
	take := func(n int) ([]byte, error) {
		if n < 0 || len(raw)-off < n {
			return nil, errors.New("truncated")
		}
		b := raw[off : off+n]
		off += n
		return b, nil
	}
	if src, err = take(txnBytes); err != nil {
		return nil, nil, nil, 0, err
	}
	lenField := func() (int, error) {
		b, err := take(2)
		if err != nil {
			return 0, err
		}
		return int(binary.LittleEndian.Uint16(b)), nil
	}
	n, err := lenField()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if data, err = take(n); err != nil {
		return nil, nil, nil, 0, err
	}
	if n, err = lenField(); err != nil {
		return nil, nil, nil, 0, err
	}
	if meta, err = take(n); err != nil {
		return nil, nil, nil, 0, err
	}
	return src, data, meta, off, nil
}

// SaveFile atomically writes a snapshot to path (temp file + rename), so a
// crash mid-save never leaves a torn snapshot where the next start would
// read it.
func (c *Cache) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("simcache: creating snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := c.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("simcache: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("simcache: publishing snapshot: %w", err)
	}
	return nil
}

// LoadFile warms the cache from the snapshot at path. A missing file is the
// normal first-boot case and returns (0, nil); any other failure degrades to
// a cold cache and reports why.
func (c *Cache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("simcache: opening snapshot: %w", err)
	}
	defer f.Close()
	return c.Load(f)
}
