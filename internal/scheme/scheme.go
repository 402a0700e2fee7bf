// Package scheme is the repository's codec registry: it maps stable,
// CLI/wire-safe scheme names ("universal", "basexor", "dbi1", …) to codec
// constructors so every entry point — the bxtencode CLI, the bxtd encoding
// gateway, the bxtload generator — agrees on one namespace.
//
// Names are case-sensitive and never contain spaces. Each name fixes its
// codec's parameters, as the paper's encoder and decoder are fixed at design
// time (4-byte bases, 3 Universal stages for 32-byte transactions): a BXTP
// Hello carries only the name, so another configuration is another name, as
// "2b" and "8b" are.
package scheme

import (
	"fmt"
	"io"
	"sort"

	"github.com/hpca18/bxt/internal/bdenc"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/dbi"
	"github.com/hpca18/bxt/internal/fve"
)

// Stateful is implemented by codecs whose accumulated stream state can be
// captured and replayed: Snapshot serializes the complete codec state
// (versioned magic + CRC-32C framing, internal/snap style) and Restore
// replaces the receiver's state with a snapshot's, after which the
// restored instance continues the original's encode and decode streams
// byte-identically. A failed Restore reports an error wrapping
// snap.ErrSnapshot and leaves the receiver unchanged, so callers can fall
// back to a Reset instance. This is the contract that lets a serving tier
// migrate a live decode-stateful session onto a warm replica without a
// client decoder reset.
type Stateful interface {
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

// entry is one registry row: a constructor plus the properties a serving
// tier needs to route sessions safely.
type entry struct {
	build func() core.Codec
	// decodeStateful marks schemes whose Decode depends on the order of
	// previously encoded transactions (bdenc's repository, fve's adaptive
	// table). Their whole session must stay on one codec instance; a
	// sharding tier pins such sessions to one backend. Schemes whose
	// *encode* carries state but whose decode reads only the record and
	// its metadata (dbi's bus history) are not decode-stateful: records
	// from different codec instances still decode to the source bytes.
	decodeStateful bool
	// cacheable marks schemes whose Encode is a pure function of the
	// transaction bytes: identical input always yields an identical
	// record, in any order, on any instance. Only such schemes may be
	// served from the similarity cache — an encode-stateful scheme
	// (dbi's bus-history phase, bdenc's repository) would produce a
	// record the decoder's state no longer matches.
	cacheable bool
	// stateful marks schemes whose codec implements Stateful, i.e. whose
	// stream state can be snapshotted and transferred. Every
	// decode-stateful scheme here must be stateful too — that is what
	// makes a pinned session migratable without a client reset — but the
	// converse need not hold (dbi is snapshottable for its encode
	// history while its decode is stateless). Consistency with the
	// actual interface set is locked down by a registry test.
	stateful bool
}

// builders maps registry names to constructors. Every codec here is a
// fresh, Reset instance; stateful codecs (bdenc, fve, dbi) must not be
// shared between streams.
var builders = map[string]entry{
	"baseline":  {build: func() core.Codec { return core.Identity{} }, cacheable: true},
	"basexor":   {build: func() core.Codec { return core.NewBaseXOR(4) }, cacheable: true},
	"2b":        {build: func() core.Codec { return core.NewBaseXOR(2) }, cacheable: true},
	"4b":        {build: func() core.Codec { return core.NewBaseXOR(4) }, cacheable: true},
	"8b":        {build: func() core.Codec { return core.NewBaseXOR(8) }, cacheable: true},
	"silent":    {build: func() core.Codec { return core.NewSILENT(4) }, cacheable: true},
	"universal": {build: func() core.Codec { return core.NewUniversal(3) }, cacheable: true},
	"dbi":       {build: func() core.Codec { return dbi.New(1) }, stateful: true},
	"dbi1":      {build: func() core.Codec { return dbi.New(1) }, stateful: true},
	"dbi2":      {build: func() core.Codec { return dbi.New(2) }, stateful: true},
	"dbi4":      {build: func() core.Codec { return dbi.New(4) }, stateful: true},
	"bdenc":     {build: func() core.Codec { return bdenc.New() }, decodeStateful: true, stateful: true},
	"bd":        {build: func() core.Codec { return bdenc.New() }, decodeStateful: true, stateful: true},
	"fve":       {build: func() core.Codec { return fve.New() }, decodeStateful: true, stateful: true},
	"universal+dbi1": {build: func() core.Codec {
		return core.NewChain(core.NewUniversal(3), dbi.New(1))
	}},
}

// Known reports whether name is a registered scheme.
func Known(name string) bool {
	_, ok := builders[name]
	return ok
}

// DecodeStateful reports whether decoding name's output depends on the
// order of previously encoded transactions, so the whole session must be
// served by one codec instance. Unknown names report true: a router that
// cannot prove a scheme safe to spread must fail toward pinning.
func DecodeStateful(name string) bool {
	e, ok := builders[name]
	if !ok {
		return true
	}
	return e.decodeStateful
}

// Snapshottable reports whether name's codec implements Stateful, so a
// live session's codec state can be snapshotted and transferred to a
// fresh instance. Unknown names report false: a tier that cannot prove a
// scheme's state transferable must fail toward a full reset.
func Snapshottable(name string) bool {
	e, ok := builders[name]
	if !ok {
		return false
	}
	return e.stateful
}

// AsStateful returns c's Stateful interface when it has one. It exists so
// serving code holding a core.Codec can reach the snapshot contract
// without re-deriving the scheme name.
func AsStateful(c core.Codec) (Stateful, bool) {
	s, ok := c.(Stateful)
	return s, ok
}

// Cacheable reports whether name's Encode is a pure function of the
// transaction bytes, making its records safe to serve from the similarity
// cache. Unknown names report false: a cache that cannot prove a scheme
// deterministic must fail toward encoding.
func Cacheable(name string) bool {
	e, ok := builders[name]
	if !ok {
		return false
	}
	return e.cacheable
}

// BatchEncoder returns the batch-granular encode entry point for c: c itself
// when it natively implements core.BatchEncoder, otherwise a byte-generic
// fallback that feeds each window through c.Encode. Callers can therefore
// drive any codec — including wrapped ones, like the chaos injector's fault
// proxy — through one batch call; only natively batched codecs amortize plan
// resolution and reuse bases across transactions.
func BatchEncoder(c core.Codec) core.BatchEncoder {
	if be, ok := c.(core.BatchEncoder); ok {
		return be
	}
	return seqBatch{c}
}

// seqBatch adapts a per-transaction codec to the batch interface.
type seqBatch struct{ c core.Codec }

// EncodeBatch implements core.BatchEncoder one Encode call at a time.
func (s seqBatch) EncodeBatch(dst []core.Encoded, src []byte, n, txnBytes int) error {
	if err := core.CheckBatch(dst, src, n, txnBytes); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := s.c.Encode(&dst[i], src[i*txnBytes:(i+1)*txnBytes]); err != nil {
			return err
		}
	}
	return nil
}

// Names returns the registered scheme names in sorted order.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New constructs a fresh codec for name.
func New(name string) (core.Codec, error) {
	e, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("scheme: unknown scheme %q", name)
	}
	return e.build(), nil
}
