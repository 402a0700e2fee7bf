package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/power"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/simcache"
	"github.com/hpca18/bxt/internal/trace"
)

// layerMetrics are the per-layer metrics a traced run reports after the
// ungated round metrics, with their units; BENCHMARK.json lists the same
// names. README.md maps each to the end-to-end metric and workload it
// should move.
var layerMetrics = []struct{ name, unit string }{
	{"client.frame_write_ns", "ns"},
	{"client.reply_parse_ns", "ns"},
	{"trace.frame_parse_ns", "ns"},
	{"trace.reply_seal_ns", "ns"},
	{"scheme.codec_encode_ns", "ns"},
	{"scheme.batch_reuse_ratio", "ratio"},
	{"bus.phy_account_ns", "ns"},
	{"simcache.simcache_lookup_ns", "ns"},
	{"simcache.hit_ratio", "ratio"},
	{"simcache.near_hit_ratio", "ratio"},
	{"net.loopback_rtt_ns", "ns"},
	{"proxy.relay_ns", "ns"},
	{"server.unattributed_ns", "ns"},
	{"mux.stream_p99_spread", "ratio"},
	{"process.allocs_per_batch", "count"},
	{"process.gc_per_kbatch", "count"},
	{"client.retries_per_kbatch", "count"},
	{"client.busy_per_kbatch", "count"},
	{"client.epoch_bumps", "count"},
	{"bxtd.frame_read_ns", "ns"},
	{"bxtd.admission_ns", "ns"},
	{"bxtd.codec_encode_ns", "ns"},
	{"bxtd.phy_account_ns", "ns"},
	{"bxtd.frame_write_ns", "ns"},
	{"bxtproxy.backend_exchange_ns", "ns"},
	{"bxtproxy.frame_write_ns", "ns"},
	{"bench.trace_overhead_pct", "%"},
}

// replayStages are the layers the replay times, in round-trip order. Their
// span names are the metric names without the _ns suffix.
var replayStages = [...]string{
	"client.frame_write", "trace.frame_parse", "scheme.codec_encode",
	"bus.phy_account", "trace.reply_seal", "client.reply_parse",
}

// replayBatches is how many batches the layer replay runs per workload.
const replayBatches = 1024

// traceWorkload makes w's traced run, d long in total: an untraced round
// and a traced round of d/3 each, then the layer replays, the loopback RTT
// floor and a relay A/B over the last d/3.
func traceWorkload(w workloadSpec, in *inputs, d time.Duration, spans *spanLog) (workloadResult, error) {
	var res workloadResult
	plain, err := runRound(w, in, d/3, nil)
	if err != nil {
		return res, err
	}
	traced, err := runRound(w, in, d/3, spans)
	if err != nil {
		return res, err
	}
	res = summarize(w.name, []roundResult{plain})
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	l := make(map[string]float64)

	self, reuse, err := replayLayers(w, in, spans)
	if err != nil {
		return res, err
	}
	for _, st := range replayStages {
		l[st+"_ns"] = self[st]
	}
	l["scheme.batch_reuse_ratio"] = reuse
	if err := replaySimcache(w, in, spans, l); err != nil {
		return res, err
	}
	// A v4 body is the stream id, the 20-byte envelope, then the batch
	// (count and 9-byte record headers) or the reply (60-byte stats).
	reqBytes := 4 + 20 + 4 + w.batchTxns*(9+w.txnBytes)
	replyBytes := 4 + 20 + 60 + w.batchTxns*w.txnBytes
	if l["net.loopback_rtt_ns"], err = loopbackRTT(reqBytes, replyBytes, replayBatches); err != nil {
		return res, err
	}
	relay, err := relayAB(w, in, d/3)
	if err != nil {
		return res, err
	}
	res.Attempted += relay.attempted
	res.Failed += relay.failed
	l["proxy.relay_ns"] = relay.relay
	l["bxtproxy.backend_exchange_ns"] = relay.stages["backend_exchange"]
	l["bxtproxy.frame_write_ns"] = relay.stages["frame_write"]

	p50 := plain.win.lat.quantile(0.5)
	unattributed := p50 - l["net.loopback_rtt_ns"]
	for _, st := range replayStages {
		unattributed -= self[st]
	}
	if w.simcache {
		unattributed -= l["simcache.simcache_lookup_ns"]
	}
	if w.proxied {
		unattributed -= relay.relay
	}
	l["server.unattributed_ns"] = unattributed
	l["mux.stream_p99_spread"] = p99Spread(w, plain.win.streamP99)
	perBatch := float64(max(plain.win.batches, 1))
	l["process.allocs_per_batch"] = float64(plain.win.allocs) / perBatch
	l["process.gc_per_kbatch"] = 1000 * float64(plain.win.gcs) / perBatch
	l["client.retries_per_kbatch"] = 1000 * float64(plain.retries) / float64(max(plain.attempted, 1))
	l["client.busy_per_kbatch"] = 1000 * float64(plain.busy) / float64(max(plain.attempted, 1))
	l["client.epoch_bumps"] = float64(plain.epochs)
	for _, st := range []string{"frame_read", "admission", "codec_encode", "phy_account", "frame_write"} {
		l["bxtd."+st+"_ns"] = traced.stages[st]
	}
	l["bench.trace_overhead_pct"] = 100 * (traced.win.lat.quantile(0.5)/p50 - 1)

	res.Layers = make(map[string]metricValue)
	for _, m := range roundMetrics {
		if !m.gated {
			res.Layers[m.name] = metricValue{Value: res.Metrics[m.name].Value, Unit: m.unit}
		}
	}
	for _, m := range layerMetrics {
		v, ok := l[m.name]
		if !ok {
			return res, fmt.Errorf("layer metric %s was not measured", m.name)
		}
		res.Layers[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// p99Spread is the worst p99 over the median p99 among the sessions running
// w's first scheme: how much the slowest sibling stream trails the typical
// one. A single-session workload reports 1.
func p99Spread(w workloadSpec, p99 []float64) float64 {
	var same []float64
	for i, s := range w.schemes {
		if s == w.schemes[0] {
			same = append(same, p99[i])
		}
	}
	return slices.Max(same) / median(same)
}

// span is one timed interval of the traced run; spans of one batch share a
// trace id, and a layer span names the replayed batch span as its parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  uint64 `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. Closed-loop calls stop
// being stored past maxLoadSpans, so trace.json stays small; they are still
// timed and locked the same way.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	load    int
	dropped int
}

const maxLoadSpans = 4096

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// addLoad records the span of one closed-loop call.
func (l *spanLog) addLoad(traceID uint64, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.load >= maxLoadSpans {
		l.dropped++
		return
	}
	l.load++
	l.appendLocked("client.transcode", 0, traceID, start, end)
}

// add records a span and returns its id.
func (l *spanLog) add(name string, parent int, traceID uint64, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(name, parent, traceID, start, end)
}

func (l *spanLog) appendLocked(name string, parent int, traceID uint64, start, end time.Time) int {
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Trace: traceID,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
	return len(l.spans)
}

// selfTimes returns, per span name, the mean self time in nanoseconds of
// the spans with ids in [from, to): a span's duration minus the part its
// children cover.
func (l *spanLog) selfTimes(from, to int) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := make(map[string]float64)
	count := make(map[string]float64)
	for _, s := range l.spans[from-1 : to-1] {
		d := float64(s.End - s.Start)
		total[s.Name] += d
		count[s.Name]++
		if s.Parent >= from {
			total[l.spans[s.Parent-1].Name] -= d
		}
	}
	for k := range total {
		total[k] /= count[k]
	}
	return total
}

func (l *spanLog) next() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans) + 1
}

// write saves the spans with the run's stamp as JSON.
func (l *spanLog) write(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out, err := json.Marshal(struct {
		Stamp   *report `json:"run"`
		Dropped int     `json:"dropped_load_spans"`
		Spans   []span  `json:"spans"`
	}{rep, l.dropped, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// replayer runs one session's round trip through each layer's public
// functions, the calls the client and bxtd make, and times every layer.
type replayer struct {
	txnBytes  int
	metaBits  int
	metaBytes int
	batch     core.BatchEncoder
	raw, enc  *bus.Bus
	rawPrev   bus.Stats
	encPrev   bus.Stats
	model     *power.Model

	id      uint64
	req     []byte
	reply   []byte
	parsed  []trace.Transaction
	recs    []core.Encoded
	recBuf  []byte
	replies []trace.EncodedRecord
}

func newReplayer(w workloadSpec, name string) (*replayer, error) {
	c, err := scheme.New(name)
	if err != nil {
		return nil, err
	}
	width := config.DefaultServer().ChannelWidthBits
	mb := c.MetaBits(w.txnBytes)
	return &replayer{
		txnBytes: w.txnBytes, metaBits: mb, metaBytes: (mb + 7) / 8,
		batch: scheme.BatchEncoder(c), raw: bus.New(width), enc: bus.New(width), model: power.NewModel(),
		recs: make([]core.Encoded, w.batchTxns),
	}, nil
}

// run replays b once, recording a parent span and one span per layer.
func (r *replayer) run(b *batch, spans *spanLog) error {
	var ts [len(replayStages) + 1]time.Time
	r.id++
	traceID := rand.Uint64() | 1 // nonzero, as on the wire
	n := len(b.txns)

	ts[0] = time.Now()
	body := trace.AppendTraceEnvelope(trace.AppendStreamID(r.req[:0], 0), r.id, traceID)
	body, err := trace.AppendBatch(body, b.txns, r.txnBytes)
	if err != nil {
		return err
	}
	if err := trace.SealBatchEnvelope(body[4:]); err != nil {
		return err
	}
	r.req = body

	ts[1] = time.Now()
	_, rest, err := trace.SplitStreamID(r.req)
	if err != nil {
		return err
	}
	_, _, payload, err := trace.OpenTraceEnvelope(rest)
	if err != nil {
		return err
	}
	if r.parsed, err = trace.ParseBatch(payload, r.txnBytes, r.parsed); err != nil {
		return err
	}

	ts[2] = time.Now()
	recLen := r.txnBytes + r.metaBytes
	r.recBuf = slices.Grow(r.recBuf[:0], n*recLen)[:n*recLen]
	if r.metaBits == 0 {
		for i := range r.recs {
			off := i * recLen
			r.recs[i] = core.Encoded{Data: r.recBuf[off : off+recLen : off+recLen]}
		}
	}
	if err := r.batch.EncodeBatch(r.recs, b.src, n, r.txnBytes); err != nil {
		return err
	}
	if r.metaBits != 0 {
		for i := range r.recs {
			off := i * recLen
			copy(r.recBuf[off:], r.recs[i].Data)
			copy(r.recBuf[off+r.txnBytes:off+recLen], r.recs[i].Meta)
		}
	}

	ts[3] = time.Now()
	if err := r.raw.TransferBatch(b.src, r.txnBytes); err != nil {
		return err
	}
	if r.metaBits == 0 {
		err = r.enc.TransferBatch(r.recBuf, r.txnBytes)
	} else {
		for i := range r.recs {
			if err = r.enc.Transfer(&r.recs[i]); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	rawNow, encNow := r.raw.Stats(), r.enc.Stats()
	rawDelta, encDelta := rawNow.Sub(r.rawPrev), encNow.Sub(r.encPrev)
	r.rawPrev, r.encPrev = rawNow, encNow
	stats := trace.BatchStats{
		Transactions: uint32(n), DataBits: uint64(rawDelta.DataBits),
		OnesBefore: uint64(rawDelta.Ones()), OnesAfter: uint64(encDelta.Ones()),
		TogglesBefore: uint64(rawDelta.Toggles()), TogglesAfter: uint64(encDelta.Toggles()),
		BaselinePJ: r.model.Estimate(rawDelta).Total() * 1e12,
		EncodedPJ:  r.model.Estimate(encDelta).Total() * 1e12,
	}

	ts[4] = time.Now()
	reply := trace.AppendTraceEnvelope(trace.AppendStreamID(r.reply[:0], 0), r.id, traceID)
	reply = append(trace.AppendBatchStats(reply, stats), r.recBuf...)
	if err := trace.SealBatchEnvelope(reply[4:]); err != nil {
		return err
	}
	r.reply = reply

	ts[5] = time.Now()
	if _, rest, err = trace.SplitStreamID(r.reply); err != nil {
		return err
	}
	if _, _, payload, err = trace.OpenTraceEnvelope(rest); err != nil {
		return err
	}
	parsed, err := trace.ParseBatchReplyInto(payload, r.txnBytes, r.metaBytes, r.replies)
	if err != nil {
		return err
	}
	r.replies = parsed.Records

	ts[6] = time.Now()
	parent := spans.add("replay.batch", 0, traceID, ts[0], ts[len(ts)-1])
	for i, st := range replayStages {
		spans.add(st, parent, traceID, ts[i], ts[i+1])
	}
	return nil
}

// replayBatchesOf returns the batches session i replays: its pool, or the
// first poolTxns transactions of its hot-set stream.
func replayBatchesOf(w workloadSpec, in *inputs, i int) ([]*batch, error) {
	name := w.schemes[i]
	if !w.hotset {
		return in.pools[name], nil
	}
	src, err := newHotSource(w, name, in.seed+int64(i))
	if err != nil {
		return nil, err
	}
	out := make([]*batch, poolTxns/w.batchTxns)
	for k := range out {
		b := src.next()
		c := newBatch(w.batchTxns, w.txnBytes, b.txns[0].Addr)
		copy(c.src, b.src)
		c.want = slices.Clone(b.want)
		out[k] = c
	}
	return out, nil
}

// replayLayers replays replayBatches batches, cycling over the sessions and
// their batches, and returns each layer's mean self time per batch and the
// batch encoders' cross-transaction base reuse ratio.
func replayLayers(w workloadSpec, in *inputs, spans *spanLog) (map[string]float64, float64, error) {
	reps := make([]*replayer, len(w.schemes))
	sets := make([][]*batch, len(w.schemes))
	for i, name := range w.schemes {
		var err error
		if reps[i], err = newReplayer(w, name); err != nil {
			return nil, 0, err
		}
		if sets[i], err = replayBatchesOf(w, in, i); err != nil {
			return nil, 0, err
		}
	}
	from := spans.next()
	for k := 0; k < replayBatches; k++ {
		i := k % len(reps)
		set := sets[i]
		if err := reps[i].run(set[(k/len(reps))%len(set)], spans); err != nil {
			return nil, 0, fmt.Errorf("replay %s: %w", w.schemes[i], err)
		}
	}
	var hits, txns uint64
	for _, r := range reps {
		if br, ok := r.batch.(core.BatchReuser); ok {
			h, t := br.BatchReuse()
			hits, txns = hits+h, txns+t
		}
	}
	reuse := 0.0
	if txns > 0 {
		reuse = float64(hits) / float64(txns)
	}
	return spans.selfTimes(from, spans.next()), reuse, nil
}

// replaySimcache pushes one pass of every cacheable session's batches
// through a cold similarity cache configured as bxtd configures its own,
// timing the lookups, and reports lookup time per batch and the hit ratios.
func replaySimcache(w workloadSpec, in *inputs, spans *spanLog, l map[string]float64) error {
	width := config.DefaultServer().ChannelWidthBits
	caches := make(map[string]*simcache.Cache)
	probe := simcache.GetProbe()
	defer simcache.PutProbe(probe)
	var missed []int
	from := spans.next()
	for i, name := range w.schemes {
		if !scheme.Cacheable(name) {
			continue
		}
		c, err := scheme.New(name)
		if err != nil {
			return err
		}
		_, near := c.(core.PatchEncoder)
		cache := caches[name]
		if cache == nil {
			if cache, err = simcache.New(simcache.Config{TxnBytes: w.txnBytes, ChannelWidthBits: width}); err != nil {
				return err
			}
			caches[name] = cache
		}
		set, err := replayBatchesOf(w, in, i)
		if err != nil {
			return err
		}
		for _, b := range set {
			missed = missed[:0]
			start := time.Now()
			for k, t := range b.txns {
				var res simcache.Result
				if near {
					res = cache.Lookup(probe, t.Data)
				} else {
					res = cache.LookupExact(probe, t.Data)
				}
				if res == simcache.Miss {
					missed = append(missed, k)
				}
			}
			spans.add("simcache.simcache_lookup", 0, 0, start, time.Now())
			recLen := len(b.want) / len(b.txns)
			for _, k := range missed {
				rec := b.want[k*recLen : (k+1)*recLen]
				cache.Insert(probe, b.txns[k].Data, rec[:w.txnBytes], rec[w.txnBytes:])
			}
		}
	}
	l["simcache.simcache_lookup_ns"] = spans.selfTimes(from, spans.next())["simcache.simcache_lookup"]
	var st simcache.Stats
	for _, c := range caches {
		s := c.Stats()
		st.Hits, st.NearHits, st.Misses = st.Hits+s.Hits, st.NearHits+s.NearHits, st.Misses+s.Misses
	}
	lookups := float64(st.Hits + st.NearHits + st.Misses)
	l["simcache.hit_ratio"] = float64(st.Hits) / lookups
	l["simcache.near_hit_ratio"] = float64(st.NearHits) / lookups
	return nil
}

// loopbackRTT echoes n request-sized frames for reply-sized ones over a
// loopback TCP connection with the standard library alone, and returns the
// median round trip in nanoseconds: the syscall floor under every batch.
func loopbackRTT(reqBytes, replyBytes, n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	echoed := make(chan error, 1)
	go func() { echoed <- echo(ln, reqBytes, replyBytes) }()
	var h latencyHist
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err == nil {
		br, bw := bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
		req, buf := make([]byte, reqBytes), make([]byte, replyBytes+1)
		for i := 0; i < n && err == nil; i++ {
			start := time.Now()
			if err = trace.WriteFrame(bw, trace.FrameBatch, req); err == nil {
				err = bw.Flush()
			}
			if err == nil {
				_, _, err = trace.ReadFrame(br, buf)
			}
			h.add(time.Since(start))
		}
		conn.Close()
	}
	ln.Close()
	if echoErr := <-echoed; err == nil {
		err = echoErr
	}
	return h.quantile(0.5), err
}

// echo answers every frame on ln's first connection with a replyBytes body
// until the peer closes it.
func echo(ln net.Listener, reqBytes, replyBytes int) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	br, bw := bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
	reply, buf := make([]byte, replyBytes), make([]byte, reqBytes+1)
	for {
		if _, _, err := trace.ReadFrame(br, buf); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := trace.WriteFrame(bw, trace.FrameBatchReply, reply); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// relayResult is the proxy hop's cost on one workload's traffic.
type relayResult struct {
	relay             float64 // p50 through the proxy minus p50 direct, ns
	stages            map[string]float64
	attempted, failed int
}

// relayAB measures the relay hop on a side tier of one bxtd, its cache off,
// with one bxtproxy in front: one session of w's first scheme talks to bxtd
// directly and an identical one goes through the proxy, taking turns over
// eight slices of d/8 so host drift lands on both.
func relayAB(w workloadSpec, in *inputs, d time.Duration) (relayResult, error) {
	var rr relayResult
	side := workloadSpec{name: w.name, batchTxns: w.batchTxns, txnBytes: w.txnBytes, schemes: w.schemes[:1], hotset: w.hotset}
	t, err := startTier(side, in, client.Config{})
	if err != nil {
		return rr, err
	}
	defer t.close()
	prx, err := startProxy(t.srv.Addr())
	if err != nil {
		return rr, err
	}
	defer prx.Close()
	c, err := client.Dial(prx.Addr(), side.schemes[0], side.txnBytes)
	if err != nil {
		return rr, err
	}
	defer c.Close()
	via, err := newSession(side, in, 0, c, c.MetaBits())
	if err != nil {
		return rr, err
	}
	direct := t.sessions[0]
	drive([]*session{via}, time.Time{}, warmupBatches)
	before, err := scrapeStages(prx.MetricsAddr(), "bxtproxy_stage_seconds")
	if err != nil {
		return rr, err
	}
	var lat [2]latencyHist
	for k := 0; k < 8; k++ {
		s := []*session{direct, via}[k%2]
		s.measuring, s.lat = true, latencyHist{}
		drive([]*session{s}, time.Now().Add(d/8), 0)
		s.measuring = false
		lat[k%2].merge(&s.lat)
	}
	after, err := scrapeStages(prx.MetricsAddr(), "bxtproxy_stage_seconds")
	if err != nil {
		return rr, err
	}
	rr.relay = lat[1].quantile(0.5) - lat[0].quantile(0.5)
	rr.stages = stageMeans(before, after)
	for _, s := range []*session{direct, via} {
		rr.attempted += s.batches
		rr.failed += s.failed
	}
	return rr, nil
}

// stageSum is one stage histogram's totals, summed over schemes.
type stageSum struct{ count, sum float64 }

// scrapeStages reads a tier's /metrics and returns the family's stage
// histogram totals keyed by stage.
func scrapeStages(addr, family string) (map[string]stageSum, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	points, err := obs.ParsePromText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	out := make(map[string]stageSum)
	for _, p := range points {
		st := out[p.Label("stage")]
		switch p.Name {
		case family + "_count":
			st.count += p.Value
		case family + "_sum":
			st.sum += p.Value
		default:
			continue
		}
		out[p.Label("stage")] = st
	}
	return out, nil
}

// stageMeans returns each stage's mean in nanoseconds over the
// observations made between two scrapes.
func stageMeans(before, after map[string]stageSum) map[string]float64 {
	out := make(map[string]float64)
	for st, a := range after {
		b := before[st]
		if n := a.count - b.count; n > 0 {
			out[st] = (a.sum - b.sum) / n * 1e9
		}
	}
	return out
}
