package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/trace"
)

// workloadSpec is one workload: a traffic mix driven through a fresh
// serving tier. Every session is a closed loop: its caller sends the next
// batch only after the previous reply arrived, as real callers blocked in
// Transcode do.
type workloadSpec struct {
	name      string
	batchTxns int
	txnBytes  int
	// schemes names one codec per session.
	schemes []string
	// proxied routes the sessions through one bxtproxy in front of bxtd.
	proxied bool
	// mux carries every session as a stream of one client.Mux connection;
	// otherwise the single session is a plain client.Client.
	mux bool
	// hotset generates every batch on the fly from a Zipf hot set;
	// otherwise each session cycles a pool of pre-generated batches.
	hotset bool
	// simcache turns bxtd's similarity cache on.
	simcache bool
}

// workloads are the benchmark's traffic mixes; README.md records why each
// exists and which layer it stresses.
var workloads = []workloadSpec{
	{name: "direct-256x32", batchTxns: 256, txnBytes: 32, schemes: []string{"universal"}},
	{name: "proxied-256x32", batchTxns: 256, txnBytes: 32, schemes: []string{"universal"}, proxied: true},
	{name: "mux16-64x32", batchTxns: 64, txnBytes: 32, schemes: muxSchemes(), mux: true},
	{name: "zipfcache-256x32", batchTxns: 256, txnBytes: 32, schemes: []string{"4b"}, hotset: true, simcache: true},
}

// muxSchemes is the mux16 stream mix: twelve basexor streams and four
// bdenc streams, the heavy neighbours, spread evenly over the stream ids.
func muxSchemes() []string {
	s := make([]string, 16)
	for i := range s {
		s[i] = "basexor"
		if i%4 == 3 {
			s[i] = "bdenc"
		}
	}
	return s
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// poolTxns is how many transactions a session's pool of distinct batches
// holds (64 batches of 256, or 256 of 64), so every workload's energy figure
// rests on as much distinct data.
const poolTxns = 16384

// batch is one request with the reply it must get back.
type batch struct {
	txns []trace.Transaction // Data windows alias src
	src  []byte              // the payloads, contiguous
	// want holds the expected reply records (payload then metadata, per
	// transaction) of a stateless scheme; nil when the session checks
	// replies by decoding them in lockstep instead.
	want []byte
}

func newBatch(n, txnBytes int, firstAddr uint64) *batch {
	b := &batch{txns: make([]trace.Transaction, n), src: make([]byte, n*txnBytes)}
	for i := range b.txns {
		b.txns[i] = trace.Transaction{
			Addr: firstAddr + uint64(i*txnBytes),
			Kind: trace.Read,
			Data: b.src[i*txnBytes : (i+1)*txnBytes : (i+1)*txnBytes],
		}
	}
	return b
}

// fillMix writes the gateway tests' payload mix into b: half the
// transactions repeat their predecessor (adjacent requests to one hot line)
// and the rest are random, zero and repeated-element payloads in equal
// parts. The shares are exact in every batch and only the order is drawn,
// so the energy a seed measures depends on the codec, not on how many
// payloads of each kind the seed happened to draw.
func fillMix(b *batch, rng *rand.Rand) {
	kinds := make([]int, len(b.txns))
	for i := range kinds {
		kinds[i] = i % 6 // 0 random, 1 zero, 2 repeated element, 3-5 duplicate
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i, k := range kinds {
		if k < 3 {
			kinds[0], kinds[i] = kinds[i], kinds[0] // the first cannot repeat a predecessor
			break
		}
	}
	for i, k := range kinds {
		if k < 3 {
			fillPayload(b.txns[i].Data, k, rng)
		} else {
			copy(b.txns[i].Data, b.txns[i-1].Data)
		}
	}
}

// fillPayload writes one payload of the given kind: 0 random, 1 zero, 2 one
// random 4-byte element repeated.
func fillPayload(p []byte, kind int, rng *rand.Rand) {
	switch kind {
	case 0:
		rng.Read(p)
	case 1:
		clear(p)
	default:
		var elem [4]byte
		rng.Read(elem[:])
		for off := 0; off < len(p); off += len(elem) {
			copy(p[off:], elem[:])
		}
	}
}

// hotSet draws transactions the way workload.HotSet does: with probability
// 0.9 it re-serves one of 4096 hot payloads, picked by Zipf rank with skew
// 1.3 and perturbed by up to 6 random bit flips (near-duplicates for the
// similarity cache), and otherwise it draws a novel payload. Unlike
// workload.HotSet, the hot payloads are fixed, like the data a service
// holds, and only the accesses come from the seed: at this skew the three
// hottest keys carry 45% of all repeats, and drawing their contents
// from the seed moved every end-to-end metric by tens of percent from one
// seed to the next. Hot key k's kind is zero, repeated element or random
// in turn.
type hotSet struct {
	zipf *rand.Zipf
	hot  [][]byte
}

const (
	hotKeys    = 4096
	hotSkew    = 1.3
	hotRepeat  = 0.9
	hotFlipMax = 6
)

func newHotSet(rng *rand.Rand, txnBytes int) *hotSet {
	h := &hotSet{zipf: rand.NewZipf(rng, hotSkew, 1, hotKeys-1), hot: make([][]byte, hotKeys)}
	data := rand.New(rand.NewSource(1))
	for k := range h.hot {
		h.hot[k] = make([]byte, txnBytes)
		fillPayload(h.hot[k], []int{1, 2, 0}[k%3], data)
	}
	return h
}

func (h *hotSet) fill(dst []byte, rng *rand.Rand) {
	if rng.Float64() >= hotRepeat {
		fillPayload(dst, rng.Intn(3), rng)
		return
	}
	copy(dst, h.hot[h.zipf.Uint64()])
	for k := rng.Intn(hotFlipMax + 1); k > 0; k-- {
		bit := rng.Intn(len(dst) * 8)
		dst[bit/8] ^= 1 << (bit % 8)
	}
}

// source yields a session's next request.
type source interface {
	next() *batch
}

// poolSource cycles a shared pool from its own starting offset, so streams
// sharing a pool are not in lockstep.
type poolSource struct {
	pool []*batch
	i    int
}

func (p *poolSource) next() *batch {
	b := p.pool[p.i%len(p.pool)]
	p.i++
	return b
}

// hotSource draws every transaction fresh from a hot set and never replays
// a batch, so the similarity cache's hit rate comes from the hot
// set's popularity and the novel traffic that evicts, not from replay. The
// expected records come from a local codec in lockstep.
type hotSource struct {
	gen     *hotSet
	rng     *rand.Rand
	enc     core.Codec
	scratch core.Encoded
	b       *batch
	addr    uint64
}

func newHotSource(w workloadSpec, schemeName string, seed int64) (*hotSource, error) {
	enc, err := scheme.New(schemeName)
	if err != nil {
		return nil, err
	}
	b := newBatch(w.batchTxns, w.txnBytes, 0)
	b.want = make([]byte, 0, len(b.src))
	rng := rand.New(rand.NewSource(seed))
	return &hotSource{gen: newHotSet(rng, w.txnBytes), rng: rng, enc: enc, b: b}, nil
}

func (h *hotSource) next() *batch {
	for i := range h.b.txns {
		t := &h.b.txns[i]
		h.gen.fill(t.Data, h.rng)
		t.Addr = h.addr
		h.addr += uint64(len(t.Data))
	}
	var err error
	if h.b.want, err = encodeRecords(h.b.want[:0], h.enc, &h.scratch, h.b); err != nil {
		h.b.want = h.b.want[:0] // an impossible reply: the check fails the batch
	}
	return h.b
}

// makePool generates a session pool from seed. For stateless schemes it
// also precomputes every reply with a local codec and checks once that those
// records decode back to the input.
func makePool(w workloadSpec, schemeName string, seed int64) ([]*batch, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*batch, poolTxns/w.batchTxns)
	for i := range pool {
		pool[i] = newBatch(w.batchTxns, w.txnBytes, uint64(i*w.batchTxns*w.txnBytes))
		fillMix(pool[i], rng)
	}
	if scheme.DecodeStateful(schemeName) {
		return pool, nil
	}
	enc, err := scheme.New(schemeName)
	if err != nil {
		return nil, err
	}
	dec, err := scheme.New(schemeName)
	if err != nil {
		return nil, err
	}
	var scratch core.Encoded
	for _, b := range pool {
		if b.want, err = encodeRecords(nil, enc, &scratch, b); err != nil {
			return nil, err
		}
		if err := checkDecode(dec, b, b.want); err != nil {
			return nil, fmt.Errorf("%s: local codec does not round-trip: %w", schemeName, err)
		}
	}
	return pool, nil
}

// encodeRecords appends b's reply records as the gateway lays them out,
// encoding through the scratch record e.
func encodeRecords(dst []byte, c core.Codec, e *core.Encoded, b *batch) ([]byte, error) {
	for _, t := range b.txns {
		if err := c.Encode(e, t.Data); err != nil {
			return dst, err
		}
		dst = append(dst, e.Data...)
		dst = append(dst, e.Meta...)
	}
	return dst, nil
}

// checkDecode decodes records (payload then metadata, per transaction)
// with dec and compares each result to b's input.
func checkDecode(dec core.Codec, b *batch, records []byte) error {
	txnBytes := len(b.txns[0].Data)
	metaBits := dec.MetaBits(txnBytes)
	recLen := txnBytes + (metaBits+7)/8
	if len(records) != len(b.txns)*recLen {
		return fmt.Errorf("%d record bytes for %d transactions", len(records), len(b.txns))
	}
	out := make([]byte, txnBytes)
	for i, t := range b.txns {
		rec := records[i*recLen : (i+1)*recLen]
		e := core.Encoded{Data: rec[:txnBytes], Meta: rec[txnBytes:], MetaBits: metaBits}
		if err := dec.Decode(out, &e); err != nil {
			return fmt.Errorf("transaction %d: %w", i, err)
		}
		if !bytes.Equal(out, t.Data) {
			return fmt.Errorf("transaction %d decodes to different bytes", i)
		}
	}
	return nil
}
