package server

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/simcache"
)

// simCacheKey identifies one cache instance: caches are per (scheme,
// transaction size) because a cached record is only valid for the exact
// codec configuration and geometry that produced it.
type simCacheKey struct {
	scheme   string
	txnBytes int
}

// simCaches is the gateway's similarity-cache registry: instances are
// created lazily at session handshake and live as long as the process.
type simCaches struct {
	mu     sync.Mutex
	caches map[simCacheKey]*simcache.Cache
}

// cachesScheme reports whether schemeName's streams, whose records carry
// metaBits side-band bits, are served through a similarity cache: the tier
// is enabled, the scheme's Encode is a pure function of the transaction
// bytes, and its records are data bytes alone.
func (s *Server) cachesScheme(schemeName string, metaBits int) bool {
	return s.cfg.SimCache.Enabled && scheme.Cacheable(schemeName) && metaBits == 0
}

// simCacheFor returns the cache for a (scheme, txnBytes) session, creating
// it on first use. It returns nil — meaning "serve without a cache" — when
// the tier is disabled, the scheme is not a pure function of the
// transaction bytes, or the geometry cannot band this transaction size; the
// gateway always degrades to plain encoding.
// metaBits is the scheme's side-band width at this transaction size: only
// metadata-free streams get a cache, because the simcache.Encoder that
// serves it replies with data bytes alone. No cacheable scheme carries
// metadata (TestCacheable), so the rule turns no served stream away.
func (s *Server) simCacheFor(schemeName string, txnBytes, metaBits int) *simcache.Cache {
	if !s.cachesScheme(schemeName, metaBits) {
		return nil
	}
	cfg := s.cfg.SimCache
	key := simCacheKey{schemeName, txnBytes}
	s.sc.mu.Lock()
	defer s.sc.mu.Unlock()
	if s.sc.caches == nil {
		s.sc.caches = make(map[simCacheKey]*simcache.Cache)
	}
	if c, ok := s.sc.caches[key]; ok {
		return c // may be nil: a key that already failed to build stays off
	}
	c, err := simcache.New(simcache.Config{
		TxnBytes:  txnBytes,
		Capacity:  cfg.Capacity,
		Threshold: cfg.Threshold,
		Bands:     cfg.Bands,
		Shards:    cfg.Shards,
	})
	if err != nil {
		s.log.Warn("simcache disabled for session geometry", "scheme", schemeName, "txn_bytes", txnBytes, "err", err)
		s.events.Add(obs.Event{Type: obs.EventSimcacheError, Scheme: schemeName, Detail: err.Error()})
		s.sc.caches[key] = nil
		return nil
	}
	s.sc.caches[key] = c
	return c
}

// writeSimcacheMetrics renders the similarity-cache series of the /metrics
// document, one label set per (scheme, txn_bytes) cache instance.
func (s *Server) writeSimcacheMetrics(w io.Writer) {
	s.sc.mu.Lock()
	keys := make([]simCacheKey, 0, len(s.sc.caches))
	for k, c := range s.sc.caches {
		if c != nil {
			keys = append(keys, k)
		}
	}
	caches := make(map[simCacheKey]*simcache.Cache, len(keys))
	for _, k := range keys {
		caches[k] = s.sc.caches[k]
	}
	s.sc.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].scheme != keys[j].scheme {
			return keys[i].scheme < keys[j].scheme
		}
		return keys[i].txnBytes < keys[j].txnBytes
	})
	for _, k := range keys {
		st := caches[k].Stats()
		labels := fmt.Sprintf("scheme=%q,txn_bytes=\"%d\"", k.scheme, k.txnBytes)
		fmt.Fprintf(w, "bxtd_simcache_hits_total{%s} %d\n", labels, st.Hits)
		fmt.Fprintf(w, "bxtd_simcache_near_hits_total{%s} %d\n", labels, st.NearHits)
		fmt.Fprintf(w, "bxtd_simcache_misses_total{%s} %d\n", labels, st.Misses)
		fmt.Fprintf(w, "bxtd_simcache_evictions_total{%s} %d\n", labels, st.Evictions)
		fmt.Fprintf(w, "bxtd_simcache_entries{%s} %d\n", labels, st.Entries)
		fmt.Fprintf(w, "bxtd_simcache_hit_rate{%s} %g\n", labels, st.HitRate())
		fmt.Fprintf(w, "bxtd_simcache_near_hamming_bits_avg{%s} %g\n", labels, st.AvgNearDistance())
	}
}
