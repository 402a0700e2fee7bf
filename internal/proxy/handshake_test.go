package proxy

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/trace"
)

// damage flips one bit of the first handshake frame of the first backend
// connection whose Hello names scheme: of the Hello the proxy replays, or
// of the HelloOK the backend answers it with. at is the byte's offset in
// the frame, header included.
type damage struct {
	scheme string
	hello  bool
	at     int
	fired  atomic.Bool
}

// damageConn is one backend connection under d. Its first Write is the
// proxy's Hello; its first Read begins with the backend's HelloOK.
type damageConn struct {
	net.Conn
	d      *damage
	onRead bool // the HelloOK this connection reads next is to be damaged
}

func (c *damageConn) Write(p []byte) (int, error) {
	if len(p) > trace.FrameHeaderBytes && trace.FrameType(p[4]) == trace.FrameHello &&
		bytes.Contains(p, []byte(c.d.scheme)) && c.d.fired.CompareAndSwap(false, true) {
		if !c.d.hello {
			c.onRead = true
			return c.Conn.Write(p)
		}
		q := bytes.Clone(p)
		q[c.d.at] ^= 1
		if _, err := c.Conn.Write(q); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (c *damageConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.onRead && n > c.d.at {
		c.onRead = false
		p[c.d.at] ^= 1
	}
	return n, err
}

// TestDamagedHelloReplay damages the Hello the proxy replays to its first
// backend, in a letter of the scheme name. The seal makes that a failure
// of the backend connection, never the backend's refusal of the client's
// parameters: the proxy redials, and the client dials, transcodes its
// first batch and never reconnects.
func TestDamagedHelloReplay(t *testing.T) {
	// Frame header, magic, version, transaction size and the name's
	// length byte come first.
	damagedHandshake(t, &damage{scheme: "universal", hello: true, at: trace.FrameHeaderBytes + 4 + 1 + 4 + 1 + 1})
}

// TestDamagedHelloOK damages the HelloOK the first backend answers the
// proxy's Hello with, in its metadata width. The seal makes that a failure
// of the backend connection, never a geometry relayed to the client: the
// proxy redials, and the client dials, transcodes its first batch and
// never reconnects.
func TestDamagedHelloOK(t *testing.T) {
	// The version byte, then the metadata width's low byte.
	damagedHandshake(t, &damage{scheme: "universal", at: trace.FrameHeaderBytes + 1})
}

// damagedHandshake runs one client through a two-backend proxy whose
// backend leg suffers d, and requires its dial and first batch to succeed
// with no reconnect.
func damagedHandshake(t *testing.T, d *damage) {
	px, _ := startPinFixture(t, nil)
	dial := px.leg.Dialer
	px.leg.Dialer = func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		return &damageConn{Conn: conn, d: d}, nil
	}
	if err := px.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { px.Close() })

	c, err := client.DialConfig(px.Addr(), d.scheme, pinFixtureTxnSize, client.Config{})
	if err != nil {
		t.Fatalf("dial through the proxy: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(5))
	txns := make([]trace.Transaction, 16)
	for i := range txns {
		data := make([]byte, pinFixtureTxnSize)
		rng.Read(data)
		txns[i] = trace.Transaction{Addr: uint64(i) * pinFixtureTxnSize, Kind: trace.Write, Data: data}
	}
	if _, err := c.Transcode(txns); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if !d.fired.Load() {
		t.Fatal("no handshake frame was damaged; the test proved nothing")
	}
	if n := c.RetryStats().Reconnects; n != 0 {
		t.Errorf("client reconnected %d times, want 0", n)
	}
}
