// Package memsys models the GPU memory system of Table I: a 4 MB sectored
// last-level cache (128-byte lines, four 32-byte sectors) in front of
// twelve 32-bit GDDR5X channels, with the encode/decode logic integrated in
// the memory controller exactly as §V-B's system organization describes —
// data is encoded before being written, stored in encoded form in DRAM, and
// decoded when read back, with no DRAM-side changes for the Base+XOR family
// (link-layer schemes like DBI are decoded at the DRAM pins instead).
package memsys

import (
	"fmt"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
)

// DataSource materializes DRAM contents on first touch: FillSector writes
// the deterministic initial payload of the sector at addr.
type DataSource interface {
	FillSector(addr uint64, dst []byte)
}

// ZeroSource is a DataSource of all-zero memory.
type ZeroSource struct{}

// FillSector implements DataSource.
func (ZeroSource) FillSector(_ uint64, dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
}

// DRAM bank geometry for row-activation accounting (GDDR5X-class device).
const (
	// BanksPerChannel is the number of independent banks.
	BanksPerChannel = 16
	// RowBytes is the row (page) size per bank.
	RowBytes = 2048
)

// Channel is one GDDR5X channel: a 32-bit bus, its share of the DRAM
// storage, and the memory controller's codec pair.
type Channel struct {
	// Storage is the at-rest encoding (Base+XOR family, metadata-free;
	// nil means raw). Data in the sector store is kept in this form.
	Storage core.Codec
	// Link is an optional per-transfer encoding decoded at the far side
	// (DBI). Its metadata crosses the bus but is never stored.
	Link core.Codec

	sectorBytes int
	bus         *bus.Bus
	store       map[uint64][]byte
	src         DataSource

	// openRow tracks the open row per bank; rowValid marks cold banks.
	openRow   [BanksPerChannel]uint64
	rowValid  [BanksPerChannel]bool
	activates uint64

	encTmp  core.Encoded
	linkTmp core.Encoded
}

// NewChannel returns a channel with the given at-rest and link codecs (both
// optional) over a widthBits bus.
func NewChannel(widthBits, sectorBytes int, storage, link core.Codec, src DataSource) *Channel {
	if src == nil {
		src = ZeroSource{}
	}
	return &Channel{
		Storage:     storage,
		Link:        link,
		sectorBytes: sectorBytes,
		bus:         bus.New(widthBits),
		store:       make(map[uint64][]byte),
		src:         src,
	}
}

// storedForm returns the at-rest form of the sector at addr, materializing
// it from the data source on first touch.
func (c *Channel) storedForm(addr uint64) ([]byte, error) {
	if s, ok := c.store[addr]; ok {
		return s, nil
	}
	raw := make([]byte, c.sectorBytes)
	c.src.FillSector(addr, raw)
	enc := raw
	if c.Storage != nil {
		if err := c.Storage.Encode(&c.encTmp, raw); err != nil {
			return nil, err
		}
		enc = append([]byte(nil), c.encTmp.Data...)
	}
	c.store[addr] = enc
	return enc, nil
}

// touchRow updates the open-row state for an access to addr, counting an
// activation when the addressed bank must open a different row.
func (c *Channel) touchRow(addr uint64) {
	bank := (addr / RowBytes) % BanksPerChannel
	row := addr / (RowBytes * BanksPerChannel)
	if !c.rowValid[bank] || c.openRow[bank] != row {
		c.activates++
		c.openRow[bank] = row
		c.rowValid[bank] = true
	}
}

// Activates returns the number of row activations the channel performed.
func (c *Channel) Activates() uint64 { return c.activates }

// transfer drives one at-rest-form payload across the bus, applying the
// link codec if configured.
func (c *Channel) transfer(stored []byte) error {
	payload := &core.Encoded{Data: stored}
	if c.Link != nil {
		if err := c.Link.Encode(&c.linkTmp, stored); err != nil {
			return err
		}
		payload = &c.linkTmp
	}
	if err := c.bus.Transfer(payload); err != nil {
		return err
	}
	return nil
}

// ReadSector transfers the sector at addr across the bus in its stored form
// and returns the decoded data.
func (c *Channel) ReadSector(addr uint64) ([]byte, error) {
	stored, err := c.storedForm(addr)
	if err != nil {
		return nil, err
	}
	c.touchRow(addr)
	if err := c.transfer(stored); err != nil {
		return nil, err
	}
	out := make([]byte, c.sectorBytes)
	if c.Storage != nil {
		if err := c.Storage.Decode(out, &core.Encoded{Data: stored}); err != nil {
			return nil, err
		}
	} else {
		copy(out, stored)
	}
	return out, nil
}

// WriteSector encodes data, transfers it, and stores the encoded form.
func (c *Channel) WriteSector(addr uint64, data []byte) error {
	if len(data) != c.sectorBytes {
		return fmt.Errorf("memsys: write of %d bytes to %d-byte sector", len(data), c.sectorBytes)
	}
	stored := data
	if c.Storage != nil {
		if err := c.Storage.Encode(&c.encTmp, data); err != nil {
			return err
		}
		stored = c.encTmp.Data
	}
	c.touchRow(addr)
	if err := c.transfer(stored); err != nil {
		return err
	}
	c.store[addr] = append([]byte(nil), stored...)
	return nil
}

// Idle advances the channel through n idle beats (bus parked at the
// termination level).
func (c *Channel) Idle(n int) { c.bus.Idle(n) }

// Stats returns the channel's accumulated bus activity.
func (c *Channel) Stats() bus.Stats { return c.bus.Stats() }

// System is the full memory system: the sectored LLC in front of the
// channel array.
type System struct {
	GPU   config.GPU
	Cache *Cache
	Chans []*Channel

	reads, writes, misses, writebacks uint64
}

// CodecFactory builds one codec instance per channel (codecs are stateful
// and not safe to share).
type CodecFactory func() core.Codec

// NewSystem builds the Table I memory system with the given at-rest and
// link codec factories (either may be nil).
func NewSystem(gpu config.GPU, storage, link CodecFactory, src DataSource) *System {
	chans := make([]*Channel, gpu.Channels())
	for i := range chans {
		var s, l core.Codec
		if storage != nil {
			s = storage()
		}
		if link != nil {
			l = link()
		}
		chans[i] = NewChannel(gpu.ChannelWidthBits, gpu.SectorBytes, s, l, src)
	}
	return &System{
		GPU:   gpu,
		Cache: NewCache(gpu.LastLevelCacheBytes, 16, gpu.CacheLineBytes, gpu.SectorBytes),
		Chans: chans,
	}
}

// channelFor maps a sector address to its channel: 256-byte interleaving
// across the twelve channels.
func (s *System) channelFor(addr uint64) *Channel {
	return s.Chans[(addr>>8)%uint64(len(s.Chans))]
}

// Access performs one 32-byte sector access from the GPU. For writes, data
// is the new sector payload; for reads the returned slice holds the sector
// contents.
func (s *System) Access(addr uint64, write bool, data []byte) ([]byte, error) {
	addr &^= uint64(s.GPU.SectorBytes - 1)
	if write {
		s.writes++
	} else {
		s.reads++
	}
	hit, victim := s.Cache.Access(addr, write)
	// Dirty sectors displaced from the LLC are written back to DRAM.
	for _, wb := range victim {
		s.writebacks++
		if err := s.channelFor(wb.Addr).WriteSector(wb.Addr, wb.Data); err != nil {
			return nil, err
		}
	}
	switch {
	case write:
		// Write-allocate: the LLC holds the new payload until eviction.
		s.Cache.FillDirty(addr, data)
		if !hit {
			s.misses++
		}
		return nil, nil
	case hit:
		if d := s.Cache.DirtyData(addr); d != nil {
			return d, nil
		}
		// Clean hit: contents equal DRAM's decoded view; no bus traffic.
		return s.peek(addr)
	default:
		s.misses++
		d, err := s.channelFor(addr).ReadSector(addr)
		if err != nil {
			return nil, err
		}
		s.Cache.Fill(addr)
		return d, nil
	}
}

// peek returns the decoded sector contents without bus traffic (used for
// clean LLC hits, which never reach DRAM).
func (s *System) peek(addr uint64) ([]byte, error) {
	c := s.channelFor(addr)
	stored, err := c.storedForm(addr)
	if err != nil {
		return nil, err
	}
	out := make([]byte, c.sectorBytes)
	if c.Storage != nil {
		err = c.Storage.Decode(out, &core.Encoded{Data: stored})
	} else {
		copy(out, stored)
	}
	return out, err
}

// Drain writes back every dirty sector still resident in the LLC.
func (s *System) Drain() error {
	for _, wb := range s.Cache.DrainDirty() {
		s.writebacks++
		if err := s.channelFor(wb.Addr).WriteSector(wb.Addr, wb.Data); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates bus activity across all channels.
func (s *System) Stats() bus.Stats {
	var total bus.Stats
	for _, c := range s.Chans {
		total.Add(c.Stats())
	}
	return total
}

// Counters returns access/miss/writeback totals.
func (s *System) Counters() (reads, writes, misses, writebacks uint64) {
	return s.reads, s.writes, s.misses, s.writebacks
}

// Activates returns the total row activations across all channels, for
// feeding measured (rather than assumed) activate energy into the power
// model.
func (s *System) Activates() uint64 {
	var total uint64
	for _, c := range s.Chans {
		total += c.Activates()
	}
	return total
}

// RowHitRate returns the measured fraction of DRAM transactions served from
// an already-open row.
func (s *System) RowHitRate() float64 {
	txns := uint64(s.Stats().Transactions)
	if txns == 0 {
		return 0
	}
	return 1 - float64(s.Activates())/float64(txns)
}

// MissRate returns LLC misses per access.
func (s *System) MissRate() float64 {
	total := s.reads + s.writes
	if total == 0 {
		return 0
	}
	return float64(s.misses) / float64(total)
}
