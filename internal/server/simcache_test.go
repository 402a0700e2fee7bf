package server

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/simcache"
	"github.com/hpca18/bxt/internal/trace"
	"github.com/hpca18/bxt/internal/workload"
)

// makeHotTxns synthesizes a Zipf hot-key trace: most transactions re-serve
// a small popular payload set, optionally perturbed by up to flipBits bit
// flips (the near-duplicate traffic the similarity tier exists for).
func makeHotTxns(seed int64, n, txnSize, flipBits int) []trace.Transaction {
	g := &workload.HotSet{
		Base:       workload.Random{},
		Keys:       48,
		S:          1.3,
		RepeatProb: 0.9,
		FlipBits:   flipBits,
	}
	rng := rand.New(rand.NewSource(seed))
	txns := make([]trace.Transaction, n)
	for i := range txns {
		data := make([]byte, txnSize)
		g.Fill(data, rng)
		txns[i] = trace.Transaction{Addr: uint64(i * txnSize), Kind: trace.Write, Data: data}
	}
	return txns
}

// streamRecords runs one session over txns and returns every reply record
// (data plus side-band) concatenated in arrival order, with each batch's
// wire-accounting stats rendered in between — so comparing two streams
// byte-for-byte also proves the summary-memoized accounting path reproduces
// the full Transfer walk exactly.
func streamRecords(t *testing.T, addr, schemeName string, txns []trace.Transaction, txnSize int) []byte {
	t.Helper()
	c, err := client.Dial(addr, schemeName, txnSize)
	if err != nil {
		t.Fatalf("dial %s: %v", schemeName, err)
	}
	defer c.Close()
	var out []byte
	const batch = 200
	for off := 0; off < len(txns); off += batch {
		end := off + batch
		if end > len(txns) {
			end = len(txns)
		}
		reply, err := c.Transcode(txns[off:end])
		if err != nil {
			t.Fatalf("transcode batch at %d: %v", off, err)
		}
		out = fmt.Appendf(out, "%+v\n", reply.Stats)
		for _, rec := range reply.Records {
			out = append(out, rec.Data...)
			out = append(out, rec.Meta...)
		}
	}
	return out
}

// simMetric scrapes one bxtd_simcache_* sample for a (scheme, txnBytes)
// cache instance from a /metrics document.
func simMetric(t *testing.T, body, name, schemeName string, txnBytes int) float64 {
	t.Helper()
	pat := fmt.Sprintf(`(?m)^%s\{scheme=%q,txn_bytes="%d"\} (\S+)$`, name, schemeName, txnBytes)
	m := regexp.MustCompile(pat).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metrics missing %s for scheme=%s txn_bytes=%d:\n%s", name, schemeName, txnBytes, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parsing %s sample %q: %v", name, m[1], err)
	}
	return v
}

// TestSimcacheEndToEnd is the similarity tier's acceptance test: a seeded
// Zipf trace is streamed through a cache-off gateway and a cache-on
// gateway, and the replies must be byte-identical — cached and patched
// records are indistinguishable from freshly encoded ones — while the
// cache-on gateway serves the majority of transactions from the tier.
// "4b" exercises the full path (exact hits plus near-duplicate patching);
// "universal" exercises the exact-only path of a non-patching codec;
// "4b-replayed" checks near-hit admission over a replayed trace.
func TestSimcacheEndToEnd(t *testing.T) {
	const (
		txnSize = 32
		total   = 6000
	)
	off := startServer(t, testConfig())
	cfgOn := testConfig()
	cfgOn.SimCache.Enabled = true
	on := startServer(t, cfgOn)

	cases := []struct {
		scheme   string
		flipBits int // near-dup knob: only patching codecs can exploit flips
		wantNear bool
	}{
		{"4b", 6, true},
		{"universal", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.scheme, func(t *testing.T) {
			txns := makeHotTxns(99, total, txnSize, tc.flipBits)
			plain := streamRecords(t, off.Addr(), tc.scheme, txns, txnSize)
			cached := streamRecords(t, on.Addr(), tc.scheme, txns, txnSize)
			if !bytes.Equal(plain, cached) {
				t.Fatal("cache-on replies (records or accounting stats) differ from cache-off replies on the same trace")
			}

			body := httpGet(t, "http://"+on.MetricsAddr()+"/metrics")
			hits := simMetric(t, body, "bxtd_simcache_hits_total", tc.scheme, txnSize)
			near := simMetric(t, body, "bxtd_simcache_near_hits_total", tc.scheme, txnSize)
			misses := simMetric(t, body, "bxtd_simcache_misses_total", tc.scheme, txnSize)
			rate := simMetric(t, body, "bxtd_simcache_hit_rate", tc.scheme, txnSize)
			if lookups := hits + near + misses; lookups != total {
				t.Errorf("cache saw %v lookups, want %d", lookups, total)
			}
			if rate <= 0.5 {
				t.Errorf("hit rate %.3f (hits %v, near %v, misses %v); the Zipf trace must serve mostly from cache", rate, hits, near, misses)
			}
			if tc.wantNear && near == 0 {
				t.Error("patching codec saw no near hits on a bit-flipped trace")
			}
			if !tc.wantNear && near != 0 {
				t.Errorf("non-patching codec recorded %v near hits; its lookups must be exact-only", near)
			}
			if tc.wantNear {
				avg := simMetric(t, body, "bxtd_simcache_near_hamming_bits_avg", tc.scheme, txnSize)
				if avg <= 0 || avg >= 12 {
					t.Errorf("near-hit mean Hamming distance %v bits outside (0, threshold)", avg)
				}
			}
		})
	}
	t.Run("4b-replayed", func(t *testing.T) {
		testSimcacheReplay(t, off, txnSize, total)
	})
}

// testSimcacheReplay streams one bit-flipped trace three times through a
// fresh cache-on gateway, each pass replying exactly as the cache-off
// gateway off does. Admission defers a near-hit variant to its second
// sighting, so the second pass patches variants again, and the third must
// serve every one as an exact hit. The only exceptions are content-hash
// collisions: two variants of one payload that differ only in the top bits
// of two words share an FNV-1a word hash, so each displaces the other on
// insert. Every near hit left in the third pass must be such a pair, and so
// must evict its partner on re-admission.
func testSimcacheReplay(t *testing.T, off *Server, txnSize, total int) {
	cfgOn := testConfig()
	cfgOn.SimCache.Enabled = true
	on := startServer(t, cfgOn)
	txns := makeHotTxns(101, total, txnSize, 6)
	var prev [4]float64
	for pass := 1; pass <= 3; pass++ {
		plain := streamRecords(t, off.Addr(), "4b", txns, txnSize)
		cached := streamRecords(t, on.Addr(), "4b", txns, txnSize)
		if !bytes.Equal(plain, cached) {
			t.Fatalf("pass %d: cache-on replies (records or accounting stats) differ from cache-off replies", pass)
		}
		body := httpGet(t, "http://"+on.MetricsAddr()+"/metrics")
		var now, d [4]float64
		for i, name := range []string{"hits_total", "near_hits_total", "misses_total", "evictions_total"} {
			now[i] = simMetric(t, body, "bxtd_simcache_"+name, "4b", txnSize)
			d[i] = now[i] - prev[i]
		}
		prev = now
		hits, near, misses, evictions := d[0], d[1], d[2], d[3]
		t.Logf("pass %d: %v exact hits, %v near hits, %v misses, %v evictions", pass, hits, near, misses, evictions)
		switch {
		case pass > 1 && misses != 0:
			t.Errorf("pass %d: %v misses on a replayed trace", pass, misses)
		case pass == 2 && near < float64(total)/10:
			t.Errorf("pass 2: only %v near hits; unadmitted variants should be patched again", near)
		case pass == 3 && (near != evictions || near > float64(total)/100):
			t.Errorf("pass 3: %v near hits and %v evictions; want every variant an exact hit but for a few colliding pairs", near, evictions)
		}
	}
}

// TestSimcacheDisabledForStatefulScheme checks the gate: a scheme whose
// decode depends on session history (dbi1 carries bus state) must never be
// cached, even with the tier enabled.
func TestSimcacheDisabledForStatefulScheme(t *testing.T) {
	cfg := testConfig()
	cfg.SimCache.Enabled = true
	srv := startServer(t, cfg)
	txns := makeHotTxns(5, 500, 32, 0)
	streamRecords(t, srv.Addr(), "dbi1", txns, 32)
	body := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	if strings.Contains(body, "bxtd_simcache_hits_total{scheme=\"dbi1\"") {
		t.Error("stateful scheme dbi1 acquired a similarity cache")
	}
}

// TestGoldenCachedStream drives a fixed hot-set trace batch by batch through
// one cache-on 4b stream and pins the cache's Stats() plus a digest of every
// reply body. The pinned values were recorded from the stream's inline cache
// walk that preceded simcache.Encoder, so any change to the order in which
// the stream looks up, patches and inserts — or to the bytes and accounting
// it replies with — shows up here. Batch sizes straddle the block factor, and
// the cache is small enough that the trace evicts.
func TestGoldenCachedStream(t *testing.T) {
	cfg := testConfig()
	cfg.SimCache.Enabled = true
	cfg.SimCache.Capacity = 512
	cfg.SimCache.Shards = 2
	st := newConfigStream(t, cfg, "4b", 32)
	cache := st.ss.srv.simCacheFor("4b", 32, 0)
	if st.cached == nil || cache == nil {
		t.Fatal("cache-on 4b stream got no similarity cache")
	}
	hot := &workload.HotSet{Base: &workload.KindCycle{}, Keys: 1024, S: 1.2, RepeatProb: 0.9, FlipBits: 6}
	rng := rand.New(rand.NewSource(17))
	sizes := []int{1, batchBlockTxns - 1, batchBlockTxns, batchBlockTxns + 1, 200, 7}
	digest := fnv.New64a()
	var id uint64
	for sent := 0; sent < 30000; id++ {
		txns := make([]trace.Transaction, sizes[id%uint64(len(sizes))])
		for i := range txns {
			txns[i] = trace.Transaction{Addr: uint64(sent+i) * 32, Kind: trace.Write, Data: make([]byte, 32)}
			hot.Fill(txns[i].Data, rng)
		}
		reply, err := st.processBatch(id, txns)
		if err != nil {
			t.Fatalf("batch %d: %v", id, err)
		}
		digest.Write(reply[trace.FrameHeaderBytes:]) // the body; writeOut seals the header
		sent += len(txns)
	}
	want := simcache.Stats{Hits: 4153, NearHits: 21258, Misses: 4589, Evictions: 5560, NearDistSum: 131697, Entries: 512}
	const wantDigest = 0x73f3c7f4d66b0ca8
	if got := cache.Stats(); got != want || digest.Sum64() != wantDigest {
		t.Fatalf("stats %+v digest %#x, want %+v digest %#x", got, digest.Sum64(), want, uint64(wantDigest))
	}
}
