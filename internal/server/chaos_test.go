package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// TestChaosSoak is the headline fault-tolerance proof: concurrent sessions
// stream transactions through a gateway whose connections and codecs are
// actively sabotaged by a seeded injector, and every record that comes back
// must still decode to its source bytes. Corruption is caught by the
// envelope CRC, codec errors and panics come back as BatchError replies,
// broken connections heal by reconnect — and the epoch discipline keeps
// stateful decoders in lockstep with the server codec through all of it.
//
// On top of the zero-mismatch bar, the test asserts the server accounted
// for every injected codec fault (panics == quarantined batches on
// /metrics) and that the whole exercise leaks no goroutines.
func TestChaosSoak(t *testing.T) {
	const sessions = 8
	const batchSize = 64
	const txnSize = 32
	txnsPer := 10000
	if testing.Short() {
		txnsPer = 2000
	}

	cfg := testConfig()
	cfg.ReadTimeout = 2 * time.Second
	cfg.WriteTimeout = 2 * time.Second
	inj := faults.MustNew(faults.Config{
		Seed:         1,
		CorruptRate:  0.004, // per read/write call: bit flips on the wire
		DropRate:     0.002, // vanished writes: stream desync
		TruncateRate: 0.002, // half-written frames, then a dead socket
		ErrRate:      0.005, // per-transaction codec errors
		PanicRate:    0.002, // per-transaction codec panics
	})

	testutil.VerifyNoLeaks(t)
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.SetFaults(inj)
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	var statsMu sync.Mutex
	var total client.RetryStats
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			schemeName := "universal"
			if i%2 == 1 {
				schemeName = "bdenc"
			}
			stats, err := soakSession(srv, schemeName, txnsPer, batchSize, txnSize, int64(100+i))
			errs[i] = err
			statsMu.Lock()
			total.Retries += stats.Retries
			total.Reconnects += stats.Reconnects
			total.Busy += stats.Busy
			total.BatchErrors += stats.BatchErrors
			statsMu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}

	// Every injected codec fault must be visible on /metrics: each panic
	// was recovered and quarantined exactly once, and every codec error
	// or panic surfaced as a recoverable batch fault.
	counts := inj.Counts()
	t.Logf("injected: %s", counts)
	t.Logf("client recovery: %+v", total)
	exp := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	if got := metricValue(t, exp, "bxtd_codec_panics_total"); uint64(got) != counts.CodecPanics {
		t.Errorf("bxtd_codec_panics_total = %d, want %d (every injected panic recovered)", got, counts.CodecPanics)
	}
	if got := metricValue(t, exp, "bxtd_poison_batches_total"); uint64(got) != counts.CodecPanics {
		t.Errorf("bxtd_poison_batches_total = %d, want %d (every panic quarantined)", got, counts.CodecPanics)
	}
	if got := metricValue(t, exp, "bxtd_batch_faults_total"); uint64(got) < counts.CodecErrs+counts.CodecPanics {
		t.Errorf("bxtd_batch_faults_total = %d, want >= %d injected codec faults",
			got, counts.CodecErrs+counts.CodecPanics)
	}
	if counts.Total() == 0 {
		t.Error("the injector fired no faults; the soak proved nothing")
	}
	if total.Retries == 0 {
		t.Error("no client retries under fault injection; recovery path untested")
	}

	// Tear everything down; the VerifyNoLeaks cleanup asserts no goroutine
	// outlived its session.
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// soakSession streams txnsTotal transactions through one fault-ridden
// session, decoding every returned record back against its source. Any
// mismatch is fatal; transient failures are retried until the deadline.
func soakSession(srv *Server, schemeName string, txnsTotal, batchSize, txnSize int, seed int64) (client.RetryStats, error) {
	ccfg := client.Config{
		MaxRetries:      40,
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 10 * time.Millisecond,
		IOTimeout:       750 * time.Millisecond,
		DialTimeout:     2 * time.Second,
	}
	// The injector can sabotage the initial handshake too.
	var c *client.Client
	var err error
	for try := 0; ; try++ {
		c, err = client.DialConfig(srv.Addr(), schemeName, txnSize, ccfg)
		if err == nil {
			break
		}
		if try == 20 {
			return client.RetryStats{}, fmt.Errorf("dial: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c.Close()

	dec, err := scheme.New(schemeName)
	if err != nil {
		return c.RetryStats(), err
	}
	lastEpoch := c.Epoch()
	rng := rand.New(rand.NewSource(seed))
	decoded := make([]byte, txnSize)
	deadline := time.Now().Add(90 * time.Second)
	for sent := 0; sent < txnsTotal; sent += batchSize {
		txns := makeTxns(rng, batchSize, txnSize)
		var reply trace.BatchReply
		for {
			reply, err = c.Transcode(txns)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return c.RetryStats(), fmt.Errorf("batch at txn %d never served: %w", sent, err)
			}
		}
		// The epoch advances whenever the server-side codec restarted
		// (reconnect, or a BatchError with the reset flag); the decoder
		// must restart with it or stateful schemes desynchronize.
		if e := c.Epoch(); e != lastEpoch {
			dec.Reset()
			lastEpoch = e
		}
		if len(reply.Records) != len(txns) {
			return c.RetryStats(), fmt.Errorf("batch at txn %d: %d records for %d transactions", sent, len(reply.Records), len(txns))
		}
		for j, rec := range reply.Records {
			e := core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: c.MetaBits()}
			if err := dec.Decode(decoded, &e); err != nil {
				return c.RetryStats(), fmt.Errorf("batch at txn %d record %d: decode: %w", sent, j, err)
			}
			for k := range decoded {
				if decoded[k] != txns[j].Data[k] {
					return c.RetryStats(), fmt.Errorf("batch at txn %d record %d: DECODE MISMATCH at byte %d", sent, j, k)
				}
			}
		}
	}
	return c.RetryStats(), nil
}
