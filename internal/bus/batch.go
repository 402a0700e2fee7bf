package bus

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/hpca18/bxt/internal/core"
)

// TransferBatch drives len(payload)/txnBytes back-to-back metadata-free
// transactions across the bus in one fused walk, accumulating statistics
// bit-identical to a Transfer call per transaction. Per-txn Transfer walks
// every beat through onesAndToggles and copies it into lastData; here the
// whole batch is a single contiguous buffer, so the 1 values and interior
// toggles are one streaming pass (onesAndBeatToggles), and ChargeBatch
// consults the history only at the boundary into the first beat and saves
// only the final beat.
func (b *Bus) TransferBatch(payload []byte, txnBytes int) error {
	if err := b.checkBatch(payload, txnBytes); err != nil {
		return err
	}
	ones, toggles := onesAndBeatToggles(payload, b.beatBytes)
	b.charge(payload, txnBytes, ones, toggles)
	return nil
}

// ChargeBatch charges the bus for payload, a batch of metadata-free
// transactions whose 1 values and interior beat toggles were counted as it
// was encoded (core's EncodeTally): it adds the toggles from the bus's last
// beat into the batch's first beat and saves the batch's last beat, reading
// no other byte of payload. With ones and toggles counted from payload, the
// statistics and wire state are bit-identical to TransferBatch's.
func (b *Bus) ChargeBatch(payload []byte, txnBytes, ones, toggles int) error {
	if err := b.checkBatch(payload, txnBytes); err != nil {
		return err
	}
	b.charge(payload, txnBytes, ones, toggles)
	return nil
}

// checkBatch validates a metadata-free batch's geometry against the beat.
func (b *Bus) checkBatch(payload []byte, txnBytes int) error {
	if txnBytes <= 0 || txnBytes%b.beatBytes != 0 {
		return fmt.Errorf("bus: %d-byte transactions do not fill %d-byte beats", txnBytes, b.beatBytes)
	}
	if len(payload)%txnBytes != 0 {
		return fmt.Errorf("bus: %d payload bytes do not divide into %d-byte transactions", len(payload), txnBytes)
	}
	return nil
}

// charge is TransferBatch and ChargeBatch once the batch's own counts are
// known.
func (b *Bus) charge(payload []byte, txnBytes, ones, toggles int) {
	if len(payload) == 0 {
		return
	}
	if len(b.lastData) != b.beatBytes {
		b.lastData = make([]byte, b.beatBytes)
		b.haveState = false
	}
	if b.haveState {
		_, boundary := onesAndToggles(payload[:b.beatBytes], b.lastData)
		b.stats.DataToggles += boundary
	}
	b.stats.DataOnes += ones
	b.stats.DataToggles += toggles
	copy(b.lastData, payload[len(payload)-b.beatBytes:])
	b.haveState = true

	b.stats.Transactions += len(payload) / txnBytes
	b.stats.Beats += len(payload) / b.beatBytes
	b.stats.DataBits += len(payload) * 8
}

// TransferRecords drives len(records)/(txnBytes+metaBytes) back-to-back
// encoded records across the bus, accumulating statistics and wire state
// bit-identical to a Transfer call per record. Each record is the BXTP
// reply layout: txnBytes of encoded data followed by metaBytes =
// (metaBits+7)/8 bytes of packed side-band bits, beat-major as in
// core.Encoded.Meta. Metadata-free records are one contiguous payload and
// take TransferBatch. Up to 64 side-band bits fit one register, so there a
// record costs one fused data walk, one boundary XOR against the previous
// record's last beat, and three popcounts for its metadata: the ones, the
// interior toggles (each beat's wires against the previous beat's, one
// shift of the word) and the boundary toggles; the bus history is saved
// back once, after the last record. Wider metadata runs Transfer per
// record.
func (b *Bus) TransferRecords(records []byte, txnBytes, metaBits int) error {
	if metaBits == 0 {
		return b.TransferBatch(records, txnBytes)
	}
	if txnBytes <= 0 || txnBytes%b.beatBytes != 0 {
		return fmt.Errorf("bus: %d-byte transactions do not fill %d-byte beats", txnBytes, b.beatBytes)
	}
	beats := txnBytes / b.beatBytes
	if metaBits < 0 || metaBits%beats != 0 {
		return fmt.Errorf("bus: %d metadata bits do not divide across %d beats", metaBits, beats)
	}
	recLen := txnBytes + (metaBits+7)/8
	if len(records)%recLen != 0 {
		return fmt.Errorf("bus: %d record bytes do not divide into %d-byte records", len(records), recLen)
	}
	if metaBits > 64 {
		for off := 0; off < len(records); off += recLen {
			e := core.Encoded{Data: records[off : off+txnBytes], Meta: records[off+txnBytes : off+recLen], MetaBits: metaBits}
			if err := b.Transfer(&e); err != nil {
				return err
			}
		}
		return nil
	}
	n := len(records) / recLen
	if n == 0 {
		return nil
	}
	wires := uint(metaBits / beats)
	wireMask := uint64(1)<<wires - 1
	metaMask := uint64(1)<<uint(metaBits) - 1
	interior := metaMask &^ wireMask
	lastBeat := uint(metaBits) - wires
	if len(b.lastData) != b.beatBytes {
		b.lastData = make([]byte, b.beatBytes)
		b.haveState = false
	}
	if len(b.lastMeta) < int(wires) {
		b.lastMeta = make([]bool, wires)
	}
	var prevMeta uint64
	for w, v := range b.lastMeta[:wires] {
		if v {
			prevMeta |= 1 << uint(w)
		}
	}
	last := b.lastData
	have := b.haveState
	var ones, toggles, metaOnes, metaToggles int
	for off := 0; off < len(records); off += recLen {
		data := records[off : off+txnBytes]
		m := loadMeta(records[off+txnBytes:off+recLen]) & metaMask
		if have {
			_, boundary := onesAndToggles(data[:b.beatBytes], last)
			toggles += boundary
			metaToggles += bits.OnesCount64((m ^ prevMeta) & wireMask)
		}
		o, t := onesAndBeatToggles(data, b.beatBytes)
		ones += o
		toggles += t
		metaOnes += bits.OnesCount64(m)
		metaToggles += bits.OnesCount64((m ^ m<<wires) & interior)
		last = data[txnBytes-b.beatBytes:]
		prevMeta = m >> lastBeat
		have = true
	}
	copy(b.lastData, last)
	for w := range b.lastMeta[:wires] {
		b.lastMeta[w] = prevMeta>>uint(w)&1 != 0
	}
	b.haveState = true

	b.stats.DataOnes += ones
	b.stats.DataToggles += toggles
	b.stats.MetaOnes += metaOnes
	b.stats.MetaToggles += metaToggles
	b.stats.Transactions += n
	b.stats.Beats += n * beats
	b.stats.DataBits += n * txnBytes * 8
	b.stats.MetaBits += n * metaBits
	return nil
}

// loadMeta returns a record's packed side-band bytes (at most 8) as one
// little-endian word.
func loadMeta(p []byte) uint64 {
	switch len(p) {
	case 8:
		return binary.LittleEndian.Uint64(p)
	case 4:
		return uint64(binary.LittleEndian.Uint32(p))
	}
	var m uint64
	for i, v := range p {
		m |= uint64(v) << (8 * uint(i))
	}
	return m
}

// onesAndBeatToggles is core.OnesCount and the interior beat-toggle count
// fused into one walk: each word is loaded once and feeds both popcount
// reductions, instead of the payload being streamed twice (and the toggle
// pass re-loading each word a second time at the lagged offset). This is
// TransferBatch's inner loop; the fusion roughly halves its memory traffic.
// len(p) must be a multiple of beatBytes.
func onesAndBeatToggles(p []byte, beatBytes int) (ones, toggles int) {
	// The serving configurations beat at 32 or 64 bits; there each lagged
	// beat is available in a register carried across iterations, so the walk
	// loads every word exactly once (no second, overlapping load at the
	// lagged offset).
	switch {
	case beatBytes == 4 && len(p) >= 8 && len(p)%4 == 0:
		// Two-wide unroll with split accumulators: the popcount reductions
		// run on independent chains while the carried beat stays a cheap
		// shift of the newest word.
		x := binary.LittleEndian.Uint64(p)
		ones0, ones1 := bits.OnesCount64(x), 0
		tog0, tog1 := bits.OnesCount32(uint32(x>>32)^uint32(x)), 0
		carry := x >> 32
		i := 8
		for ; i+16 <= len(p); i += 16 {
			a := binary.LittleEndian.Uint64(p[i:])
			b := binary.LittleEndian.Uint64(p[i+8:])
			ones0 += bits.OnesCount64(a)
			ones1 += bits.OnesCount64(b)
			tog0 += bits.OnesCount64(a ^ (a<<32 | carry))
			tog1 += bits.OnesCount64(b ^ (b<<32 | a>>32))
			carry = b >> 32
		}
		if i+8 <= len(p) {
			a := binary.LittleEndian.Uint64(p[i:])
			ones0 += bits.OnesCount64(a)
			tog0 += bits.OnesCount64(a ^ (a<<32 | carry))
			carry = a >> 32
			i += 8
		}
		if i < len(p) {
			w := binary.LittleEndian.Uint32(p[i:])
			ones0 += bits.OnesCount32(w)
			tog0 += bits.OnesCount32(w ^ uint32(carry))
		}
		return ones0 + ones1, tog0 + tog1
	case beatBytes == 8 && len(p) >= 8 && len(p)%8 == 0:
		carry := binary.LittleEndian.Uint64(p)
		ones0, ones1 := bits.OnesCount64(carry), 0
		tog0, tog1 := 0, 0
		i := 8
		for ; i+16 <= len(p); i += 16 {
			a := binary.LittleEndian.Uint64(p[i:])
			b := binary.LittleEndian.Uint64(p[i+8:])
			ones0 += bits.OnesCount64(a)
			ones1 += bits.OnesCount64(b)
			tog0 += bits.OnesCount64(a ^ carry)
			tog1 += bits.OnesCount64(b ^ a)
			carry = b
		}
		if i+8 <= len(p) {
			a := binary.LittleEndian.Uint64(p[i:])
			ones0 += bits.OnesCount64(a)
			tog0 += bits.OnesCount64(a ^ carry)
		}
		return ones0 + ones1, tog0 + tog1
	}
	for j := 0; j < beatBytes && j < len(p); j++ {
		ones += bits.OnesCount8(p[j])
	}
	i := beatBytes
	for ; i+8 <= len(p); i += 8 {
		x := binary.LittleEndian.Uint64(p[i:])
		ones += bits.OnesCount64(x)
		toggles += bits.OnesCount64(x ^ binary.LittleEndian.Uint64(p[i-beatBytes:]))
	}
	if i+4 <= len(p) {
		x := binary.LittleEndian.Uint32(p[i:])
		ones += bits.OnesCount32(x)
		toggles += bits.OnesCount32(x ^ binary.LittleEndian.Uint32(p[i-beatBytes:]))
		i += 4
	}
	for ; i < len(p); i++ {
		ones += bits.OnesCount8(p[i])
		toggles += bits.OnesCount8(p[i] ^ p[i-beatBytes])
	}
	return ones, toggles
}
