// Package bus models the physical DRAM channel at wire granularity: a
// 32-byte transaction crosses a 32-bit GDDR5X interface as eight 4-byte
// beats (§III-A), with any side-band metadata (DBI polarity, BD-Encoding
// index) driven on dedicated extra wires beat by beat.
//
// The package accounts the two data-dependent quantities the paper's energy
// model consumes: the number of 1 values driven (termination energy, §V-A)
// and the number of wire toggles between consecutive beats (capacitive
// switching energy, §VI-E). Bus state persists across transactions, so
// toggles at transaction boundaries are charged too.
package bus

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/hpca18/bxt/internal/core"
)

// Stats accumulates wire-level activity over a stream of transactions.
type Stats struct {
	// Transactions is the number of transactions transferred.
	Transactions int
	// Beats is the total number of bus beats.
	Beats int
	// DataOnes and DataToggles count activity on the data wires.
	DataOnes    int
	DataToggles int
	// MetaOnes and MetaToggles count activity on the metadata wires.
	MetaOnes    int
	MetaToggles int
	// DataBits and MetaBits are the totals transferred, for normalizing.
	DataBits int
	MetaBits int
}

// Ones returns total 1 values including metadata wires, the paper's primary
// metric ("normalized # of 1 values" counts the whole interface).
func (s Stats) Ones() int { return s.DataOnes + s.MetaOnes }

// Toggles returns total wire transitions including metadata wires.
func (s Stats) Toggles() int { return s.DataToggles + s.MetaToggles }

// Sub returns the activity in s that is not in o: the per-batch delta
// between two snapshots of one accumulating bus.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Transactions: s.Transactions - o.Transactions,
		Beats:        s.Beats - o.Beats,
		DataOnes:     s.DataOnes - o.DataOnes,
		DataToggles:  s.DataToggles - o.DataToggles,
		MetaOnes:     s.MetaOnes - o.MetaOnes,
		MetaToggles:  s.MetaToggles - o.MetaToggles,
		DataBits:     s.DataBits - o.DataBits,
		MetaBits:     s.MetaBits - o.MetaBits,
	}
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Transactions += o.Transactions
	s.Beats += o.Beats
	s.DataOnes += o.DataOnes
	s.DataToggles += o.DataToggles
	s.MetaOnes += o.MetaOnes
	s.MetaToggles += o.MetaToggles
	s.DataBits += o.DataBits
	s.MetaBits += o.MetaBits
}

// Bus is one DRAM channel's wire state. The zero value is not usable; call
// New.
type Bus struct {
	dataWires int
	beatBytes int

	lastData  []byte // previous beat's data wire values
	lastMeta  []bool // previous beat's metadata wire values
	haveState bool

	stats Stats
}

// New returns a bus with the given data width in bits (32 for the paper's
// GDDR5X channel). Width must be a positive multiple of 8.
func New(dataWires int) *Bus {
	if dataWires <= 0 || dataWires%8 != 0 {
		panic(fmt.Sprintf("bus: invalid width %d", dataWires))
	}
	return &Bus{dataWires: dataWires, beatBytes: dataWires / 8}
}

// BeatBytes returns the number of data bytes per beat.
func (b *Bus) BeatBytes() int { return b.beatBytes }

// Stats returns the activity accumulated so far.
func (b *Bus) Stats() Stats { return b.stats }

// Transfer drives one encoded transaction across the bus, accumulating ones
// and toggles. The transaction's data length must be a multiple of the beat
// size, and its metadata bits must divide evenly across the beats (both hold
// for every codec in this repository on 32-byte transactions).
func (b *Bus) Transfer(e *core.Encoded) error {
	n := len(e.Data)
	if n%b.beatBytes != 0 {
		return fmt.Errorf("bus: %d-byte transaction does not fill %d-byte beats", n, b.beatBytes)
	}
	beats := n / b.beatBytes
	if e.MetaBits%beats != 0 {
		return fmt.Errorf("bus: %d metadata bits do not divide across %d beats", e.MetaBits, beats)
	}
	metaWires := e.MetaBits / beats

	if len(b.lastData) != b.beatBytes {
		b.lastData = make([]byte, b.beatBytes)
		b.haveState = false
	}
	if len(b.lastMeta) < metaWires {
		b.lastMeta = make([]bool, metaWires)
	}

	for beat := 0; beat < beats; beat++ {
		data := e.Data[beat*b.beatBytes : (beat+1)*b.beatBytes]
		// One fused walk per beat: the 1-value count and the Hamming
		// toggle count against the previous beat come out of the same
		// word loads, instead of two separate slice passes.
		ones, toggles := onesAndToggles(data, b.lastData)
		b.stats.DataOnes += ones
		if b.haveState {
			b.stats.DataToggles += toggles
		}
		copy(b.lastData, data)

		for w := 0; w < metaWires; w++ {
			v := e.MetaBit(beat*metaWires + w)
			if v {
				b.stats.MetaOnes++
			}
			if b.haveState && v != b.lastMeta[w] {
				b.stats.MetaToggles++
			}
			b.lastMeta[w] = v
		}
		b.haveState = true
	}
	b.stats.Transactions++
	b.stats.Beats += beats
	b.stats.DataBits += n * 8
	b.stats.MetaBits += e.MetaBits
	return nil
}

// onesAndToggles returns the number of 1 bits in cur and the number of bit
// positions at which cur and last differ, from a single walk in uint64 (then
// uint32, then byte) lanes. The slices must have equal length.
func onesAndToggles(cur, last []byte) (ones, toggles int) {
	i := 0
	for ; i+8 <= len(cur); i += 8 {
		c := binary.LittleEndian.Uint64(cur[i:])
		l := binary.LittleEndian.Uint64(last[i:])
		ones += bits.OnesCount64(c)
		toggles += bits.OnesCount64(c ^ l)
	}
	if i+4 <= len(cur) {
		c := binary.LittleEndian.Uint32(cur[i:])
		l := binary.LittleEndian.Uint32(last[i:])
		ones += bits.OnesCount32(c)
		toggles += bits.OnesCount32(c ^ l)
		i += 4
	}
	for ; i < len(cur); i++ {
		ones += bits.OnesCount8(cur[i])
		toggles += bits.OnesCount8(cur[i] ^ last[i])
	}
	return ones, toggles
}

// Idle drives n idle beats: between bursts the terminated bus parks at VDD
// on every wire, which is the 0 symbol in the paper's convention (footnote
// 1), i.e. the all-zero pattern. Idle beats cost no 1 values but toggle any
// wire that was left high, so dense bursts pay to return to the idle level
// while mostly-zero encoded bursts blend into it. Metadata wires idle low
// as well.
func (b *Bus) Idle(n int) {
	if n <= 0 {
		return
	}
	if len(b.lastData) != b.beatBytes {
		b.lastData = make([]byte, b.beatBytes)
		b.haveState = false
	}
	if b.haveState {
		// Only the first idle beat can toggle; subsequent ones hold 0.
		b.stats.DataToggles += core.OnesCount(b.lastData)
		for w, v := range b.lastMeta {
			if v {
				b.stats.MetaToggles++
				b.lastMeta[w] = false
			}
		}
		for i := range b.lastData {
			b.lastData[i] = 0
		}
	}
	b.haveState = true
}

// EvaluateTrace encodes every transaction of txns with codec and drives it
// across a fresh, fully utilized bus of the given width, returning the
// accumulated activity. The codec is Reset first so stateful schemes start
// cold, as in the paper's per-application runs.
func EvaluateTrace(codec core.Codec, txns [][]byte, dataWires int) (Stats, error) {
	return EvaluateTraceUtil(codec, txns, dataWires, 1.0)
}

// EvaluateTraceUtil is EvaluateTrace at a given bandwidth utilization:
// at utilization u, each burst is followed on average by beats·(1−u)/u idle
// beats (deterministically accumulated), matching the §VI-F operating point
// of 70 %.
func EvaluateTraceUtil(codec core.Codec, txns [][]byte, dataWires int, utilization float64) (Stats, error) {
	if utilization <= 0 || utilization > 1 {
		return Stats{}, fmt.Errorf("bus: utilization %v out of (0, 1]", utilization)
	}
	codec.Reset()
	b := New(dataWires)
	var enc core.Encoded
	idleDebt := 0.0
	for _, txn := range txns {
		if err := codec.Encode(&enc, txn); err != nil {
			return Stats{}, fmt.Errorf("bus: encoding with %s: %w", codec.Name(), err)
		}
		if err := b.Transfer(&enc); err != nil {
			return Stats{}, err
		}
		beats := len(txn) / b.beatBytes
		idleDebt += float64(beats) * (1 - utilization) / utilization
		if idleDebt >= 1 {
			n := int(idleDebt)
			b.Idle(n)
			idleDebt -= float64(n)
		}
	}
	return b.Stats(), nil
}
