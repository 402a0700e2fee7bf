// Package swarm drives very large numbers of logical BXTP sessions over
// very few TCP connections — the protocol-v4 multiplexing story under
// load. It opens Conns client.Mux connections, spreads Streams logical
// sessions across them, and drives every stream's batches concurrently,
// decode-mirroring each reply record against its source transaction.
//
// Every stream stamps a per-stream nonce into its payloads, so any
// cross-stream bleed — a reply record routed to, or encoded under, the
// wrong stream's codec — surfaces as a decode mismatch rather than
// passing silently. Both cmd/bxtload's -swarm mode and the TestSwarm
// end-to-end suites are thin wrappers around Run.
package swarm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/trace"
)

// Config sizes one swarm run. The zero value is not runnable; callers set
// at least Addr, and the Default* constants fill the rest via withDefaults.
type Config struct {
	// Addr is the gateway or proxy to swarm.
	Addr string
	// Conns is how many TCP connections (muxes) carry the swarm.
	Conns int
	// Streams is the total number of logical sessions, spread evenly
	// across the connections.
	Streams int
	// Batches and BatchSize shape each stream's traffic.
	Batches   int
	BatchSize int
	// TxnSize is the transaction size in bytes (minimum 8: the leading 8
	// bytes carry the stream nonce).
	TxnSize int
	// Scheme names the transcoding scheme every stream runs (default
	// basexor: cheap per-stream codec state, deterministic decode).
	Scheme string
	// Workers is how many streams per connection transcode concurrently
	// (default 8) — in-flight interleaving on the shared wire is what
	// makes bleed detectable.
	Workers int
	// Seed makes payloads reproducible.
	Seed int64
	// Client configures each mux (retries, dialer, timeouts).
	Client client.Config
}

func (c Config) withDefaults() Config {
	if c.Conns <= 0 {
		c.Conns = 8
	}
	if c.Streams < c.Conns {
		c.Streams = c.Conns
	}
	if c.Batches <= 0 {
		c.Batches = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	if c.TxnSize < 8 {
		c.TxnSize = 32
	}
	if c.Scheme == "" {
		c.Scheme = "basexor"
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// Result tallies one swarm run.
type Result struct {
	Conns   int `json:"conns"`
	Streams int `json:"streams"`
	// Mismatches counts decode-mirror failures: any nonzero value means a
	// reply record did not decode back to the exact transaction its
	// stream sent — cross-stream bleed or corruption.
	Mismatches uint64 `json:"mismatches"`
	// Reconnects sums mux re-dials; zero means no client-visible
	// disconnect across the whole swarm.
	Reconnects uint64 `json:"reconnects"`
	// EpochBumps counts per-stream codec restarts observed (stream kills,
	// codec resets); streams recover from them, so bumps are not errors.
	EpochBumps   uint64        `json:"epoch_bumps"`
	Transactions uint64        `json:"transactions"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	// Retry aggregates fault-recovery work across every stream.
	Retry client.RetryStats `json:"retry"`
	// Stats sums the gateway's per-batch accounting.
	Stats trace.BatchStats `json:"stats"`
	// Errors holds the first few hard per-stream failures (a stream that
	// exhausted retries); an empty slice is the success criterion.
	Errors []error `json:"-"`
}

// TxnPerSecond is the run's end-to-end transaction throughput.
func (r Result) TxnPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Transactions) / r.Elapsed.Seconds()
}

// streamNonce derives the 8-byte payload tag for one global stream index.
func streamNonce(seed int64, global int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(global) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Run executes one swarm: Conns muxes × (Streams/Conns) sessions each,
// every stream transcoding Batches batches and decode-mirroring every
// record. It returns an error only for setup-level failures (a mux that
// cannot dial); per-stream failures land in Result.Errors.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Conns: cfg.Conns, Streams: cfg.Streams}

	var mismatches, epochBumps, txns atomic.Uint64
	var mu sync.Mutex // guards res.Errors, res.Retry, res.Stats
	addErr := func(err error) {
		mu.Lock()
		if len(res.Errors) < 8 {
			res.Errors = append(res.Errors, err)
		}
		mu.Unlock()
	}

	muxes := make([]*client.Mux, cfg.Conns)
	for i := range muxes {
		m, err := client.NewMux(cfg.Addr, cfg.Client)
		if err != nil {
			return res, err
		}
		muxes[i] = m
		defer m.Close()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.Conns; ci++ {
		// Spread the remainder so stream counts differ by at most one.
		perConn := cfg.Streams / cfg.Conns
		if ci < cfg.Streams%cfg.Conns {
			perConn++
		}
		wg.Add(1)
		go func(ci, perConn int) {
			defer wg.Done()
			m := muxes[ci]
			sessions := make([]*client.Session, 0, perConn)
			for si := 0; si < perConn; si++ {
				s, err := openStream(m, cfg)
				if err != nil {
					addErr(fmt.Errorf("conn %d stream %d: open: %w", ci, si, err))
					continue
				}
				sessions = append(sessions, s)
			}
			// All streams are open and concurrently live; Workers of them
			// transcode at any instant, interleaving on the shared wire.
			var cwg sync.WaitGroup
			for w := 0; w < cfg.Workers; w++ {
				cwg.Add(1)
				go func(w int) {
					defer cwg.Done()
					for si := w; si < len(sessions); si += cfg.Workers {
						// ci + si*Conns is collision-free across connections even
						// when stream counts differ by the remainder.
						n, bumps, err := driveStream(cfg, sessions[si], ci+si*cfg.Conns, &mu, &res)
						txns.Add(n)
						epochBumps.Add(bumps)
						if err != nil {
							if isMismatch(err) {
								mismatches.Add(1)
							}
							addErr(fmt.Errorf("conn %d stream %d: %w", ci, sessions[si].ID(), err))
						}
					}
				}(w)
			}
			cwg.Wait()
			for _, s := range sessions {
				st := s.RetryStats()
				mu.Lock()
				res.Retry.Retries += st.Retries
				res.Retry.Busy += st.Busy
				res.Retry.BatchErrors += st.BatchErrors
				mu.Unlock()
			}
		}(ci, perConn)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for _, m := range muxes {
		res.Reconnects += m.Reconnects()
	}
	res.Mismatches = mismatches.Load()
	res.EpochBumps = epochBumps.Load()
	res.Transactions = txns.Load()
	return res, nil
}

// openStream opens one logical session, retrying transient failures the
// way the batch path already does: a chaotic wire can corrupt the open
// exchange itself (or the handshake under it), and a refused or failed
// open is recovered by simply opening a fresh stream — each attempt takes
// a new stream id, so no server-side state is re-entered.
func openStream(m *client.Mux, cfg Config) (*client.Session, error) {
	retries := cfg.Client.MaxRetries
	for attempt := 0; ; attempt++ {
		s, err := m.Open(cfg.Scheme, cfg.TxnSize)
		if err == nil || attempt >= retries {
			return s, err
		}
		time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
	}
}

// mismatchError marks a decode-mirror failure so Run can count it apart
// from transport-level stream failures.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return e.msg }

func isMismatch(err error) bool {
	_, ok := err.(*mismatchError)
	return ok
}

// driveStream runs one stream's whole life: Batches nonce-stamped batches,
// each reply decode-mirrored record by record. Returns the transactions
// confirmed and the epoch bumps (decoder resets) observed.
func driveStream(cfg Config, s *client.Session, global int, mu *sync.Mutex, res *Result) (txns, bumps uint64, err error) {
	dec, err := scheme.New(cfg.Scheme)
	if err != nil {
		return 0, 0, err
	}
	nonce := streamNonce(cfg.Seed, global)
	rng := rand.New(rand.NewSource(int64(nonce)))
	lastEpoch := s.Epoch()
	decoded := make([]byte, cfg.TxnSize)
	batch := make([]trace.Transaction, cfg.BatchSize)
	payload := make([]byte, cfg.BatchSize*cfg.TxnSize)
	for bi := 0; bi < cfg.Batches; bi++ {
		for i := range batch {
			data := payload[i*cfg.TxnSize : (i+1)*cfg.TxnSize]
			binary.LittleEndian.PutUint64(data, nonce)
			rng.Read(data[8:])
			batch[i] = trace.Transaction{Addr: uint64(global)<<20 | uint64(bi*cfg.BatchSize+i), Kind: trace.Read, Data: data}
		}
		reply, terr := s.Transcode(batch)
		if terr != nil {
			return txns, bumps, terr
		}
		if e := s.Epoch(); e != lastEpoch {
			dec.Reset()
			lastEpoch = e
			bumps++
		}
		if len(reply.Records) != len(batch) {
			return txns, bumps, &mismatchError{fmt.Sprintf("batch %d: %d records for %d transactions", bi, len(reply.Records), len(batch))}
		}
		for j, rec := range reply.Records {
			e := core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: s.MetaBits()}
			if derr := dec.Decode(decoded, &e); derr != nil {
				return txns, bumps, &mismatchError{fmt.Sprintf("batch %d record %d: decode: %v", bi, j, derr)}
			}
			if got := binary.LittleEndian.Uint64(decoded); got != nonce {
				return txns, bumps, &mismatchError{fmt.Sprintf("batch %d record %d: nonce %#x, want %#x (cross-stream bleed)", bi, j, got, nonce)}
			}
			for k := range decoded {
				if decoded[k] != batch[j].Data[k] {
					return txns, bumps, &mismatchError{fmt.Sprintf("batch %d record %d: mismatch at byte %d", bi, j, k)}
				}
			}
		}
		mu.Lock()
		res.Stats.Add(reply.Stats)
		mu.Unlock()
		txns += uint64(len(batch))
	}
	return txns, bumps, nil
}
