package proxy

import (
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/trace"
)

// pinFixtureTxnSize is the transaction size the pin-migration tests
// handshake with.
const pinFixtureTxnSize = 32

// startPinFixture boots two bxtd backends and a proxy in front of them,
// with the health prober parked so tests control the ejected/draining
// flags by hand. mut, when non-nil, tweaks the proxy config before New.
func startPinFixture(t *testing.T, mut func(*config.Proxy)) (*Proxy, []*server.Server) {
	t.Helper()
	bcfg := config.DefaultServer()
	bcfg.ListenAddr = "127.0.0.1:0"
	bcfg.MetricsAddr = "127.0.0.1:0"
	bcfg.LogLevel = "error"
	var addrs []string
	var srvs []*server.Server
	for i := 0; i < 2; i++ {
		srv, err := server.New(bcfg)
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		if err := srv.Start(); err != nil {
			t.Fatalf("server.Start: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
		srvs = append(srvs, srv)
	}

	pcfg := config.DefaultProxy()
	pcfg.ListenAddr = "127.0.0.1:0"
	pcfg.MetricsAddr = "127.0.0.1:0"
	pcfg.Backends = addrs
	pcfg.LogLevel = "error"
	// Keep the prober out of the picture: the tests flip the ejected flag
	// by hand and nothing must restore it mid-flight.
	pcfg.HealthInterval = 10 * time.Second
	if mut != nil {
		mut(&pcfg)
	}
	px, err := New(pcfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	return px, srvs
}

// pinMakeBatch builds low-entropy traffic: every 8-byte word is a one-bit
// flip of a shared base, so bdenc takes repository hits — the payload a
// state-less pin migration corrupts and a state transfer (or a proper
// codec reset) keeps intact.
func pinMakeBatch(round int) []trace.Transaction {
	txns := make([]trace.Transaction, 16)
	for i := range txns {
		data := make([]byte, pinFixtureTxnSize)
		for w := 0; w < pinFixtureTxnSize/8; w++ {
			data[w*8] = 0xA5
			data[w*8+3] = byte(1 << uint((round+i+w)%8))
		}
		txns[i] = trace.Transaction{Addr: uint64(round*100 + i), Kind: trace.Write, Data: data}
	}
	return txns
}

func pinDecodeVerify(t *testing.T, c *client.Client, dec core.Codec, round int, txns []trace.Transaction, reply trace.BatchReply) {
	t.Helper()
	decoded := make([]byte, pinFixtureTxnSize)
	for j, rec := range reply.Records {
		e := core.Encoded{Data: rec.Data, Meta: rec.Meta, MetaBits: c.MetaBits()}
		if err := dec.Decode(decoded, &e); err != nil {
			t.Fatalf("round %d record %d: decode: %v", round, j, err)
		}
		for k := range decoded {
			if decoded[k] != txns[j].Data[k] {
				t.Fatalf("round %d record %d: decode mismatch at byte %d", round, j, k)
			}
		}
	}
}

func pinVerifyRound(t *testing.T, c *client.Client, dec core.Codec, round int) {
	t.Helper()
	txns := pinMakeBatch(round)
	reply, err := c.Transcode(txns)
	if err != nil {
		t.Fatalf("round %d: Transcode: %v", round, err)
	}
	pinDecodeVerify(t, c, dec, round, txns, reply)
}

// findPin returns the backend currently carrying the pinned session.
func findPin(t *testing.T, px *Proxy) *backend {
	t.Helper()
	for _, b := range px.backendList() {
		if b.pinned.Load() > 0 {
			return b
		}
	}
	t.Fatal("no backend carries the pinned session")
	return nil
}

// TestEjectedPinMigratesStateSeamlessly stages a pin loss while the old
// backend is still perfectly alive (an ejection racing a probe, or a
// rollout drain): the proxy must pull the dying pin's codec state and
// replay it into the replacement, so the client's decode-stateful bdenc
// decoder continues byte-identically — no epoch bump, no codec reset, no
// converted fault. The decoder below is deliberately never Reset: any
// repository divergence after the migration fails the decode comparison.
func TestEjectedPinMigratesStateSeamlessly(t *testing.T) {
	px, _ := startPinFixture(t, nil)
	if err := px.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(func() { px.Close() })

	c, err := client.DialConfig(px.Addr(), "bdenc", pinFixtureTxnSize, client.Config{
		MaxRetries:   10,
		RetryBackoff: time.Millisecond,
		IOTimeout:    5 * time.Second,
		DialTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	dec, err := scheme.New("bdenc")
	if err != nil {
		t.Fatalf("scheme.New: %v", err)
	}

	pinVerifyRound(t, c, dec, 0)
	epoch := c.Epoch()
	pin := findPin(t, px)
	pin.ejected.Store(true)

	// The next batch must be served from the replacement pin loaded with
	// the old pin's repository — relayed as a plain reply, with the client
	// connection and epoch untouched.
	txns1 := pinMakeBatch(1)
	reply1, err := c.Transcode(txns1)
	if err != nil {
		t.Fatalf("post-ejection Transcode: %v", err)
	}
	if got := c.Epoch(); got != epoch {
		t.Fatalf("client epoch = %d after seamless migration, want %d (no reset)", got, epoch)
	}
	pinDecodeVerify(t, c, dec, 1, txns1, reply1)
	if got := px.met.stateOK.Load(); got < 1 {
		t.Fatalf("stateOK transfers = %d, want >= 1", got)
	}
	if got := px.met.repins.Load(); got < 1 {
		t.Fatalf("repins = %d, want >= 1", got)
	}
	if got := px.met.faultConverted.Load(); got != 0 {
		t.Fatalf("faultConverted = %d, want 0 (migration must not surface to the client)", got)
	}

	// The session keeps streaming correct batches from the new pin,
	// decoding against repository state that straddles the migration.
	for round := 2; round < 6; round++ {
		pinVerifyRound(t, c, dec, round)
	}
	if pin.pinned.Load() != 0 {
		t.Fatalf("ejected backend still carries %d pinned sessions", pin.pinned.Load())
	}
}

// TestEjectedPinTransferFailureForcesCodecReset is the regression fence
// for the fallback path: when the state transfer cannot complete (here the
// snapshot blob is corrupted in flight, so the replacement pin refuses the
// restore), the proxy must NOT serve from the fresh backend's blank codec
// — it must convert the batch to a BatchError with the codec-reset flag,
// bumping the client epoch before anything lands on the new pin.
func TestEjectedPinTransferFailureForcesCodecReset(t *testing.T) {
	px, _ := startPinFixture(t, nil)
	// Corrupt every snapshot blob the proxy carries between backends: the
	// restore's integrity check rejects it, forcing the reset fallback.
	px.SetFaults(faults.MustNew(faults.Config{Seed: 1, SnapCorruptRate: 1}))
	if err := px.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(func() { px.Close() })

	c, err := client.DialConfig(px.Addr(), "bdenc", pinFixtureTxnSize, client.Config{
		MaxRetries:   10,
		RetryBackoff: time.Millisecond,
		IOTimeout:    5 * time.Second,
		DialTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	dec, err := scheme.New("bdenc")
	if err != nil {
		t.Fatalf("scheme.New: %v", err)
	}

	pinVerifyRound(t, c, dec, 0)
	epoch := c.Epoch()
	pin := findPin(t, px)
	pin.ejected.Store(true)

	// The client retries internally after the reset BatchError, so the
	// records it finally returns were encoded by the replacement pin's
	// post-reset codec — decodable only after a matching local Reset.
	txns1 := pinMakeBatch(1)
	reply1, err := c.Transcode(txns1)
	if err != nil {
		t.Fatalf("post-ejection Transcode: %v", err)
	}
	if got := c.Epoch(); got != epoch+1 {
		t.Fatalf("client epoch = %d after failed transfer, want %d", got, epoch+1)
	}
	dec.Reset()
	pinDecodeVerify(t, c, dec, 1, txns1, reply1)
	if got := px.met.stateRestFailed.Load(); got < 1 {
		t.Fatalf("stateRestFailed = %d, want >= 1 (corrupted blob must fail the restore)", got)
	}
	if got := px.met.faultConverted.Load(); got < 1 {
		t.Fatalf("faultConverted = %d, want >= 1 (failed transfer must convert, not serve blank state)", got)
	}
	if got := px.met.stateOK.Load() + px.met.stateOKShadow.Load(); got != 0 {
		t.Fatalf("ok state transfers = %d, want 0", got)
	}

	// After the reset the session streams correct batches from the new
	// pin, including repository hits built from post-reset state only.
	for round := 2; round < 6; round++ {
		pinVerifyRound(t, c, dec, round)
	}
	if pin.pinned.Load() != 0 {
		t.Fatalf("ejected backend still carries %d pinned sessions", pin.pinned.Load())
	}
}

// TestKilledPinRecoversFromShadow is the headline bar from the roadmap:
// kill the pinned backend outright — no live pull possible — and the
// session still fails over with zero epoch bumps, because the proxy
// restores the shadow snapshot it pulled after the last batch. Shadow
// interval 1 keeps the shadow sequence-current at every batch boundary,
// so the kill always lands in the recoverable window.
func TestKilledPinRecoversFromShadow(t *testing.T) {
	px, srvs := startPinFixture(t, func(pcfg *config.Proxy) {
		pcfg.ShadowInterval = 1
	})
	if err := px.Start(); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(func() { px.Close() })

	c, err := client.DialConfig(px.Addr(), "bdenc", pinFixtureTxnSize, client.Config{
		MaxRetries:   10,
		RetryBackoff: time.Millisecond,
		IOTimeout:    5 * time.Second,
		DialTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	dec, err := scheme.New("bdenc")
	if err != nil {
		t.Fatalf("scheme.New: %v", err)
	}

	pinVerifyRound(t, c, dec, 0)
	pinVerifyRound(t, c, dec, 1)
	// The proxy pulls each shadow after relaying the batch's reply, so
	// the client can see round 1's reply before its shadow exists; kill
	// only once both rounds' shadows have landed.
	deadline := time.Now().Add(5 * time.Second)
	for px.met.shadowPulls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("shadow snapshots pulled = %d, want 2", px.met.shadowPulls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	epoch := c.Epoch()
	pin := findPin(t, px)
	for _, srv := range srvs {
		if srv.Addr() == pin.addr {
			if err := srv.Close(); err != nil {
				t.Fatalf("killing pinned backend: %v", err)
			}
		}
	}
	pin.ejected.Store(true)

	// The live pull hits a dead socket; the shadow pulled after batch 2 is
	// still current, so the replacement pin restores it and the client
	// decoder — never Reset — keeps decoding repository hits built before
	// the kill.
	txns2 := pinMakeBatch(2)
	reply2, err := c.Transcode(txns2)
	if err != nil {
		t.Fatalf("post-kill Transcode: %v", err)
	}
	if got := c.Epoch(); got != epoch {
		t.Fatalf("client epoch = %d after shadow recovery, want %d (no reset)", got, epoch)
	}
	pinDecodeVerify(t, c, dec, 2, txns2, reply2)
	if got := px.met.stateOKShadow.Load(); got < 1 {
		t.Fatalf("stateOKShadow transfers = %d, want >= 1", got)
	}
	if got := px.met.faultConverted.Load(); got != 0 {
		t.Fatalf("faultConverted = %d, want 0 (shadow recovery must not surface to the client)", got)
	}
	for round := 3; round < 7; round++ {
		pinVerifyRound(t, c, dec, round)
	}
}
