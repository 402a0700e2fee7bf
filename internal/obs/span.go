package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanStages is the fixed per-span stage capacity. A batch crosses at most
// frame_read, admission, simcache_lookup, codec_encode, phy_account, and
// frame_write on the gateway (six stages) or frame_read, backend_exchange,
// and frame_write on the proxy; the fixed array keeps Span a pure value so
// recording one allocates nothing.
const SpanStages = 8

// SpanStage is one timed section of a span.
type SpanStage struct {
	Stage Stage
	Nanos int64
}

// Span is the record of one batch crossing one component: its trace id,
// batch id, owning
// session, and per-stage durations, plus the batch's wire activity on both
// accounting legs where the component computes it. Span is a value type
// with no heap references beyond string/time headers, so copying one into
// a ring slot is allocation-free.
type Span struct {
	TraceID uint64
	BatchID uint64
	Session uint64
	Scheme  string
	Start   time.Time
	Txns    int

	// Wire activity of the batch: ones and toggles on the baseline and
	// encoded legs plus the payload bits moved. Zero where the component
	// does not account (client and proxy spans carry what the BatchStats
	// reply reported; failed batches carry nothing).
	DataBits                uint64
	BaseOnes, EncOnes       uint64
	BaseToggles, EncToggles uint64

	stages [SpanStages]SpanStage
	n      int
}

// Reset re-arms s for a new batch, clearing recorded stages and wire
// counters while keeping the identity fields given.
func (s *Span) Reset(traceID, batchID, session uint64, scheme string) {
	*s = Span{
		TraceID: traceID,
		BatchID: batchID,
		Session: session,
		Scheme:  scheme,
		Start:   time.Now(),
	}
}

// Observe appends one stage duration. Beyond SpanStages stages the
// observation is dropped rather than grown: spans never allocate.
func (s *Span) Observe(st Stage, d time.Duration) {
	if s.n >= SpanStages {
		return
	}
	s.stages[s.n] = SpanStage{Stage: st, Nanos: int64(d)}
	s.n++
}

// Stages returns the recorded stages in observation order. The slice
// aliases the span's fixed array.
func (s *Span) Stages() []SpanStage { return s.stages[:s.n] }

// Total returns the summed stage time.
func (s *Span) Total() time.Duration {
	var t int64
	for i := 0; i < s.n; i++ {
		t += s.stages[i].Nanos
	}
	return time.Duration(t)
}

// traceShards is the TraceRing shard count. Spans take the shards in
// turn, so writers contend only when they land on one shard at once, and
// the ring keeps the last n spans whichever sessions added them.
const traceShards = 8

// TraceRing retains the most recent spans in fixed per-shard rings of
// packed records. Add is one atomic increment, one short mutex hold on the
// shard it picks and a packing copy — no allocation once the shard has
// seen the span's stage and scheme names — so it can sit on the per-batch
// serving path. Records survive session close: the ring is
// global, sharded only for lock cheapness.
type TraceRing struct {
	next   atomic.Uint64
	shards [traceShards]traceShard
}

type traceShard struct {
	mu    sync.Mutex
	ring  []spanRecord
	next  int
	total uint64
	// names interns the stage and scheme names of the shard's records,
	// which hold their uint8 ids.
	names []string
}

// spanRecord is one Span packed for the ring: 136 bytes against the
// Span's 312. Start is Unix nanoseconds (noStart for the zero time),
// stage and scheme names are ids into the shard's names (noName when the
// table is full), and the wire counters and transaction count are uint32,
// saturating: exact for any batch that fits a frame, since
// trace.MaxFrameBytes (16 MiB) moves at most 2^27 payload bits.
type spanRecord struct {
	traceID, batchID, session uint64
	start                     int64
	nanos                     [SpanStages]int64
	stages                    [SpanStages]uint8
	dataBits                  uint32
	baseOnes, encOnes         uint32
	baseToggles, encToggles   uint32
	txns                      uint32
	scheme, n                 uint8
}

const (
	noStart = math.MinInt64
	noName  = math.MaxUint8
)

// NewTraceRing retains the last n spans (rounded up to the shard count).
func NewTraceRing(n int) *TraceRing {
	per := (n + traceShards - 1) / traceShards
	if per <= 0 {
		per = 1
	}
	// One backing array for all shards: a per-shard array would round up
	// to whole pages on its own.
	recs := make([]spanRecord, traceShards*per)
	r := &TraceRing{}
	for i := range r.shards {
		r.shards[i].ring = recs[i*per : i*per : (i+1)*per]
		r.shards[i].names = make([]string, 0, 16) // the pipeline's stages and a few schemes
	}
	return r
}

// Add records one span, evicting the oldest in the shard it lands on when
// full. The span is copied; the caller may immediately reuse it.
func (r *TraceRing) Add(s *Span) {
	sh := &r.shards[r.next.Add(1)%traceShards]
	sh.mu.Lock()
	if len(sh.ring) < cap(sh.ring) {
		sh.ring = sh.ring[:len(sh.ring)+1]
		sh.pack(&sh.ring[len(sh.ring)-1], s)
	} else {
		sh.pack(&sh.ring[sh.next], s)
		sh.next = (sh.next + 1) % cap(sh.ring)
	}
	sh.total++
	sh.mu.Unlock()
}

// pack packs s into rec. A stage whose name finds no room in the shard's
// table is dropped, as is such a scheme name.
func (sh *traceShard) pack(rec *spanRecord, s *Span) {
	*rec = spanRecord{
		traceID:     s.TraceID,
		batchID:     s.BatchID,
		session:     s.Session,
		start:       noStart,
		dataBits:    sat32(s.DataBits),
		baseOnes:    sat32(s.BaseOnes),
		encOnes:     sat32(s.EncOnes),
		baseToggles: sat32(s.BaseToggles),
		encToggles:  sat32(s.EncToggles),
		txns:        sat32(uint64(max(s.Txns, 0))),
		scheme:      sh.intern(s.Scheme),
	}
	if !s.Start.IsZero() {
		rec.start = s.Start.UnixNano()
	}
	for _, st := range s.Stages() {
		if id := sh.intern(string(st.Stage)); id != noName {
			rec.stages[rec.n], rec.nanos[rec.n] = id, st.Nanos
			rec.n++
		}
	}
}

// intern returns name's id in the shard's table, adding it while the
// table has room.
func (sh *traceShard) intern(name string) uint8 {
	for i, have := range sh.names {
		if have == name {
			return uint8(i)
		}
	}
	if len(sh.names) == noName {
		return noName
	}
	sh.names = append(sh.names, name)
	return uint8(len(sh.names) - 1)
}

// unpack rebuilds the Span rec was packed from.
func (sh *traceShard) unpack(rec *spanRecord) Span {
	s := Span{
		TraceID:     rec.traceID,
		BatchID:     rec.batchID,
		Session:     rec.session,
		Txns:        int(rec.txns),
		DataBits:    uint64(rec.dataBits),
		BaseOnes:    uint64(rec.baseOnes),
		EncOnes:     uint64(rec.encOnes),
		BaseToggles: uint64(rec.baseToggles),
		EncToggles:  uint64(rec.encToggles),
		n:           int(rec.n),
	}
	if rec.start != noStart {
		s.Start = time.Unix(0, rec.start)
	}
	if rec.scheme != noName {
		s.Scheme = sh.names[rec.scheme]
	}
	for i := 0; i < s.n; i++ {
		s.stages[i] = SpanStage{Stage: Stage(sh.names[rec.stages[i]]), Nanos: rec.nanos[i]}
	}
	return s
}

// sat32 narrows v to uint32, saturating.
func sat32(v uint64) uint32 { return uint32(min(v, math.MaxUint32)) }

// Total returns the number of spans ever added (retained or evicted).
func (r *TraceRing) Total() uint64 {
	var t uint64
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		t += sh.total
		sh.mu.Unlock()
	}
	return t
}

// Snapshot returns every retained span, ordered by start time.
func (r *TraceRing) Snapshot() []Span {
	var out []Span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for j := range sh.ring {
			out = append(out, sh.unpack(&sh.ring[(sh.next+j)%len(sh.ring)]))
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Find returns the retained spans carrying traceID, ordered by start time.
func (r *TraceRing) Find(traceID uint64) []Span {
	all := r.Snapshot()
	out := all[:0]
	for _, s := range all {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// spanJSON is the /debug/trace wire shape of one span.
type spanJSON struct {
	TraceID string      `json:"trace_id"`
	BatchID uint64      `json:"batch_id"`
	Session uint64      `json:"session"`
	Scheme  string      `json:"scheme"`
	Start   time.Time   `json:"start"`
	Txns    int         `json:"txns,omitempty"`
	TotalNS int64       `json:"total_ns"`
	Stages  []stageJSON `json:"stages"`

	DataBits    uint64 `json:"data_bits,omitempty"`
	BaseOnes    uint64 `json:"base_ones,omitempty"`
	EncOnes     uint64 `json:"enc_ones,omitempty"`
	BaseToggles uint64 `json:"base_toggles,omitempty"`
	EncToggles  uint64 `json:"enc_toggles,omitempty"`
}

type stageJSON struct {
	Stage Stage `json:"stage"`
	Nanos int64 `json:"ns"`
}

// sessionJSON is one session's rolled-up wire activity over the retained
// spans: the per-session energy counters of the trace surface.
type sessionJSON struct {
	Session     uint64 `json:"session"`
	Scheme      string `json:"scheme"`
	Batches     int    `json:"batches"`
	Txns        int    `json:"txns"`
	DataBits    uint64 `json:"data_bits"`
	BaseOnes    uint64 `json:"base_ones"`
	EncOnes     uint64 `json:"enc_ones"`
	BaseToggles uint64 `json:"base_toggles"`
	EncToggles  uint64 `json:"enc_toggles"`
}

// exemplarJSON links one (scheme, stage) histogram's slowest observation
// to the trace that caused it.
type exemplarJSON struct {
	Scheme     string  `json:"scheme"`
	Stage      Stage   `json:"stage"`
	MaxSeconds float64 `json:"max_seconds"`
	TraceID    string  `json:"trace_id"`
}

// FormatTraceID renders a trace id the way the trace surface does:
// 16 hex digits, zero-padded, 0x-prefixed.
func FormatTraceID(id uint64) string { return fmt.Sprintf("0x%016x", id) }

// ParseTraceID accepts the FormatTraceID rendering or a bare decimal.
func ParseTraceID(s string) (uint64, error) {
	if t, ok := strings.CutPrefix(s, "0x"); ok {
		return strconv.ParseUint(t, 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

// TraceHandler serves the /debug/trace surface: the retained spans (newest
// last), per-session wire-activity rollups, and the slow-batch exemplars
// the stage histograms recorded. Query parameters: ?trace= filters to one
// trace id (hex or decimal), ?session= to one session, ?scheme= to one
// scheme, ?limit= caps the span list (default 256, newest kept). stages
// may be nil when the component keeps no exemplar histograms.
func TraceHandler(ring *TraceRing, stages *HistogramTracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		spans := ring.Snapshot()
		if v := q.Get("trace"); v != "" {
			id, err := ParseTraceID(v)
			if err != nil {
				http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
				return
			}
			spans = filterSpans(spans, func(s *Span) bool { return s.TraceID == id })
		}
		if v := q.Get("session"); v != "" {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad session id: "+err.Error(), http.StatusBadRequest)
				return
			}
			spans = filterSpans(spans, func(s *Span) bool { return s.Session == id })
		}
		if v := q.Get("scheme"); v != "" {
			spans = filterSpans(spans, func(s *Span) bool { return s.Scheme == v })
		}

		sessions := rollupSessions(spans)

		limit := 256
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = n
		}
		if len(spans) > limit {
			spans = spans[len(spans)-limit:]
		}

		doc := struct {
			Total     uint64         `json:"total"`
			Spans     []spanJSON     `json:"spans"`
			Sessions  []sessionJSON  `json:"sessions"`
			Exemplars []exemplarJSON `json:"exemplars"`
		}{
			Total:     ring.Total(),
			Spans:     make([]spanJSON, 0, len(spans)),
			Sessions:  sessions,
			Exemplars: collectExemplars(stages),
		}
		for i := range spans {
			s := &spans[i]
			sj := spanJSON{
				TraceID:     FormatTraceID(s.TraceID),
				BatchID:     s.BatchID,
				Session:     s.Session,
				Scheme:      s.Scheme,
				Start:       s.Start,
				Txns:        s.Txns,
				TotalNS:     int64(s.Total()),
				Stages:      make([]stageJSON, 0, s.n),
				DataBits:    s.DataBits,
				BaseOnes:    s.BaseOnes,
				EncOnes:     s.EncOnes,
				BaseToggles: s.BaseToggles,
				EncToggles:  s.EncToggles,
			}
			for _, st := range s.Stages() {
				sj.Stages = append(sj.Stages, stageJSON{Stage: st.Stage, Nanos: st.Nanos})
			}
			doc.Spans = append(doc.Spans, sj)
		}

		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

func filterSpans(spans []Span, keep func(*Span) bool) []Span {
	out := spans[:0]
	for i := range spans {
		if keep(&spans[i]) {
			out = append(out, spans[i])
		}
	}
	return out
}

// rollupSessions sums each session's retained spans into its wire-activity
// counters, ordered by session id.
func rollupSessions(spans []Span) []sessionJSON {
	byID := make(map[uint64]*sessionJSON)
	for i := range spans {
		s := &spans[i]
		agg, ok := byID[s.Session]
		if !ok {
			agg = &sessionJSON{Session: s.Session, Scheme: s.Scheme}
			byID[s.Session] = agg
		}
		agg.Batches++
		agg.Txns += s.Txns
		agg.DataBits += s.DataBits
		agg.BaseOnes += s.BaseOnes
		agg.EncOnes += s.EncOnes
		agg.BaseToggles += s.BaseToggles
		agg.EncToggles += s.EncToggles
	}
	out := make([]sessionJSON, 0, len(byID))
	for _, agg := range byID {
		out = append(out, *agg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

// collectExemplars gathers each (scheme, stage) histogram's slowest traced
// observation, slowest first.
func collectExemplars(stages *HistogramTracer) []exemplarJSON {
	out := []exemplarJSON{}
	if stages == nil {
		return out
	}
	stages.Each(func(scheme string, stage Stage, h *Histogram) {
		if sec, id := h.Exemplar(); id != 0 {
			out = append(out, exemplarJSON{Scheme: scheme, Stage: stage, MaxSeconds: sec, TraceID: FormatTraceID(id)})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].MaxSeconds > out[j].MaxSeconds })
	return out
}
