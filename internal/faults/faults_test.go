package faults

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
)

// TestParseSpec covers the -chaos flag grammar: every key, whitespace
// tolerance, and the rejection paths.
func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7, corrupt=0.01,drop=0.005,truncate=0.002,delay=0.1,delay-ms=3,stall=0.01,stall-ms=200,err=0.02,panic=0.001")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := Config{
		Seed: 7, CorruptRate: 0.01, DropRate: 0.005, TruncateRate: 0.002,
		DelayRate: 0.1, Delay: 3 * time.Millisecond,
		StallRate: 0.01, Stall: 200 * time.Millisecond,
		ErrRate: 0.02, PanicRate: 0.001,
	}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseSpec(""); err != nil || cfg != (Config{}) {
		t.Errorf("empty spec = (%+v, %v), want zero config", cfg, err)
	}
	// The stream faults are reachable only through WrapStreamConn, which
	// no daemon applies, so a spec naming them would arm nothing.
	for _, bad := range []string{"corrupt", "corrupt=x", "corrupt=1.5", "warp=0.1", "seed=abc", "stall-ms=-1",
		"stream-drop=1", "stream-interleave=0.5", "stream-target=7"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
}

// TestDeterminism verifies two injectors with the same seed make identical
// decisions over a single-goroutine run.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, ErrRate: 0.3}
	a, b := MustNew(cfg), MustNew(cfg)
	for i := 0; i < 1000; i++ {
		if a.roll(cfg.ErrRate) != b.roll(cfg.ErrRate) {
			t.Fatalf("roll %d diverged between equal seeds", i)
		}
	}
	if MustNew(Config{Seed: 43, ErrRate: 0.3}).roll(1) != true {
		t.Fatal("rate 1 must always fire")
	}
}

// TestCodecFaults checks the codec wrapper injects errors and panics at
// rate 1, passes through at rate 0, and counts every fault.
func TestCodecFaults(t *testing.T) {
	base, err := scheme.New("universal")
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 32)
	var dst core.Encoded

	in := MustNew(Config{ErrRate: 1})
	c := in.WrapCodec(base)
	if err := c.Encode(&dst, src); !errors.Is(err, ErrInjected) {
		t.Fatalf("Encode with ErrRate 1 = %v, want ErrInjected", err)
	}
	if got := in.Counts().CodecErrs; got != 1 {
		t.Fatalf("CodecErrs = %d, want 1", got)
	}

	in = MustNew(Config{PanicRate: 1})
	c = in.WrapCodec(base)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Encode with PanicRate 1 did not panic")
			}
		}()
		c.Encode(&dst, src) //nolint:errcheck // must panic
	}()
	if got := in.Counts().CodecPanics; got != 1 {
		t.Fatalf("CodecPanics = %d, want 1", got)
	}

	// No faults armed: the wrapper is transparent and still round-trips.
	in = MustNew(Config{})
	c = in.WrapCodec(base)
	for i := range src {
		src[i] = byte(i * 3)
	}
	if err := c.Encode(&dst, src); err != nil {
		t.Fatalf("transparent Encode: %v", err)
	}
	decoded := make([]byte, len(src))
	if err := c.Decode(decoded, &dst); err != nil {
		t.Fatalf("transparent Decode: %v", err)
	}
	if !bytes.Equal(decoded, src) {
		t.Fatal("transparent wrapper broke the round trip")
	}
	if total := in.Counts().Total(); total != 0 {
		t.Fatalf("transparent wrapper counted %d faults", total)
	}
}

// pipeConns returns a connected TCP pair on loopback, so deadline methods
// behave like production connections.
func pipeConns(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	<-done
	if cerr != nil || err != nil {
		t.Fatalf("pipe: dial %v accept %v", cerr, err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestConnCorruption verifies a write-path corruption flips exactly one
// bit of the delivered bytes without changing the caller's buffer.
func TestConnCorruption(t *testing.T) {
	raw, peer := pipeConns(t)
	in := MustNew(Config{Seed: 3, CorruptRate: 1})
	c := in.WrapConn(raw)

	msg := bytes.Repeat([]byte{0x5A}, 256)
	orig := append([]byte(nil), msg...)
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(msg, orig) {
		t.Fatal("Write modified the caller's buffer")
	}
	got := make([]byte, len(msg))
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	// A rate-1 read corruption on the peer side would double-flip; read raw.
	if _, err := readFull(peer, got); err != nil {
		t.Fatalf("peer read: %v", err)
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^orig[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("delivered bytes differ in %d bits, want exactly 1", diff)
	}
	if in.Counts().Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", in.Counts().Corrupted)
	}
}

// TestConnDropAndTruncate verifies dropped writes report success while
// delivering nothing, and truncated writes deliver a prefix then fail and
// close the connection.
func TestConnDropAndTruncate(t *testing.T) {
	raw, peer := pipeConns(t)
	in := MustNew(Config{Seed: 1, DropRate: 1})
	c := in.WrapConn(raw)
	if n, err := c.Write([]byte("vanishes")); n != 8 || err != nil {
		t.Fatalf("dropped Write = (%d, %v), want (8, nil)", n, err)
	}
	raw.Close() // peer must see EOF without any payload
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, _ := peer.Read(make([]byte, 16)); n != 0 {
		t.Fatalf("peer received %d bytes of a dropped write", n)
	}
	if in.Counts().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", in.Counts().Dropped)
	}

	raw2, peer2 := pipeConns(t)
	in2 := MustNew(Config{Seed: 1, TruncateRate: 1})
	c2 := in2.WrapConn(raw2)
	msg := bytes.Repeat([]byte{7}, 64)
	n, err := c2.Write(msg)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("truncated Write err = %v, want ErrInjected", err)
	}
	if n != len(msg)/2 {
		t.Fatalf("truncated Write wrote %d, want %d", n, len(msg)/2)
	}
	peer2.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := make([]byte, len(msg))
	rn, _ := readFull(peer2, got[:n])
	if rn != n {
		t.Fatalf("peer saw %d truncated bytes, want %d", rn, n)
	}
	// The connection was closed behind the caller: further writes fail.
	if _, err := raw2.Write([]byte{1}); err == nil {
		t.Error("write after injected truncation succeeded, want closed connection")
	}
}

// readFull reads exactly len(p) bytes tolerating short reads.
func readFull(c net.Conn, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := c.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TestValidate covers the configuration bounds.
func TestValidate(t *testing.T) {
	if err := (Config{CorruptRate: 1.01}).Validate(); err == nil {
		t.Error("rate > 1 accepted")
	}
	if err := (Config{ErrRate: -0.1}).Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (Config{Delay: -time.Second}).Validate(); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := New(Config{DropRate: 2}); err == nil {
		t.Error("New accepted invalid config")
	}
}
