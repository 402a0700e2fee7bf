package simcache

import (
	"time"

	"github.com/hpca18/bxt/internal/core"
)

// lookupSampleStride is the lookup timing sample rate: every stride-th
// lookup is timed and its duration scaled by the stride, so the reported
// lookup time stays statistically faithful while the other lookups pay no
// clock reads — two of those cost about as much as an exact hit itself.
const lookupSampleStride = 16

// Encoder is a core.BatchEncoder decorator that serves a batch's repeated
// and near-repeated transactions from a Cache and hands only the rest to the
// inner encoder, in one EncodeBatch call. It is meant for codecs whose
// records carry no side-band metadata: a record is its data bytes.
//
// Each call walks the batch in order. An exact hit copies the cached record
// from the cache straight into dst; a near hit is re-encoded by patching
// the cached reference, when the encoder has a patcher, and inserted at
// once if its probe admits it (Probe.Admit); anything else is a miss. The
// misses are then encoded together by the inner encoder into their own dst
// records and inserted, admitted ones only, in batch order. An Encoder is
// single-goroutine scratch, like the codec it wraps; the Cache behind it
// may be shared.
type Encoder struct {
	cache   *Cache
	inner   core.BatchEncoder
	patcher core.PatchEncoder

	probe   Probe
	misses  []miss
	missBuf []byte
	missDst []core.Encoded

	tick       uint64
	lookupTime time.Duration
}

// miss is one transaction of the current batch that the cache could not
// serve: its index, and whether its lookup admitted it for insertion.
type miss struct {
	idx   int
	admit bool
}

// NewEncoder returns an Encoder that serves c's hits and sends misses to
// inner. patcher re-encodes near hits; when it is nil, lookups are exact-only
// (LookupExact) and skip the band scan entirely.
func NewEncoder(c *Cache, inner core.BatchEncoder, patcher core.PatchEncoder) *Encoder {
	return &Encoder{cache: c, inner: inner, patcher: patcher}
}

// EncodeBatch implements core.BatchEncoder. dst records keep their buffers
// where capacity allows, so records pre-pointed at windows of one buffer are
// filled in place. An inner error is returned without inserting any of the
// batch's misses; near hits already patched stay cached.
func (e *Encoder) EncodeBatch(dst []core.Encoded, src []byte, n, txnBytes int) error {
	if err := core.CheckBatch(dst, src, n, txnBytes); err != nil {
		return err
	}
	e.misses = e.misses[:0]
	e.missBuf = e.missBuf[:0]
	p := &e.probe
	for i := 0; i < n; i++ {
		s := src[i*txnBytes : (i+1)*txnBytes]
		d := &dst[i]
		d.Resize(txnBytes, 0)
		switch res := e.lookup(s, d.Data); {
		case res == HitExact:
			// lookup has copied the record into d.Data.
		case res == HitNear && e.patcher.PatchEncode(d.Data, s, p.Ref, p.RefEnc):
			if p.Admit {
				e.cache.Insert(p, s, d.Data, nil)
			}
		default:
			e.misses = append(e.misses, miss{i, p.Admit})
			e.missBuf = append(e.missBuf, s...)
		}
	}
	m := len(e.misses)
	if m == 0 {
		return nil
	}
	if len(e.missDst) < m {
		e.missDst = make([]core.Encoded, n)
	}
	md := e.missDst[:m]
	for k, ms := range e.misses {
		md[k] = dst[ms.idx]
	}
	if err := e.inner.EncodeBatch(md, e.missBuf, m, txnBytes); err != nil {
		return err
	}
	for k, ms := range e.misses {
		d := &dst[ms.idx]
		*d = md[k]
		// A record of the wrong geometry is left for the caller to reject;
		// it must never be served from the cache.
		if ms.admit && len(d.Data) == txnBytes && d.MetaBits == 0 {
			e.cache.Insert(p, src[ms.idx*txnBytes:(ms.idx+1)*txnBytes], d.Data, nil)
		}
	}
	return nil
}

// lookup probes the cache for s into e.probe, copying an exact hit's record
// into out, and times one lookup in lookupSampleStride.
func (e *Encoder) lookup(s, out []byte) Result {
	sampled := e.tick%lookupSampleStride == 0
	e.tick++
	var start time.Time
	if sampled {
		start = time.Now()
	}
	res := e.cache.lookup(&e.probe, s, e.patcher != nil, out)
	if sampled {
		e.lookupTime += time.Since(start) * lookupSampleStride
	}
	return res
}

// TakeLookupTime returns the (sampled, scaled) time spent in cache lookups
// since the previous call, and restarts the count.
func (e *Encoder) TakeLookupTime() time.Duration {
	d := e.lookupTime
	e.lookupTime = 0
	return d
}

var _ core.BatchEncoder = (*Encoder)(nil)
