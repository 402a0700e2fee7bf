package proxy_test

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/faults"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// TestCompatMatrix pins the one BXTP revision's handshake and wire
// behaviour, direct and through the proxy: the session lands on
// trace.ProtocolVersion and data round-trips byte-identically.
func TestCompatMatrix(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	v := trace.ProtocolVersion
	for _, topology := range []string{"direct", "proxied"} {
		t.Run(fmt.Sprintf("%s/v%d_client_v%d_server", topology, v, v), func(t *testing.T) {
			bcfg := backendConfig()
			srv := startBackend(t, bcfg)
			addr := srv.Addr()
			if topology == "proxied" {
				addr = startProxy(t, proxyConfig(srv.Addr())).Addr()
			}
			c, err := client.DialConfig(addr, "basexor", 32, retryClient())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(44))
			verifySession(t, c, buildDecoder(t, "basexor"), rng, 5, 8)
		})
	}
}

// TestCompatFaultSemantics drives one injected codec fault through a
// session, direct and proxied: the client sees the recoverable BatchError
// (ErrBatchFault, connection intact).
func TestCompatFaultSemantics(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	v := trace.ProtocolVersion
	for _, topology := range []string{"direct", "proxied"} {
		t.Run(fmt.Sprintf("%s/v%d", topology, v), func(t *testing.T) {
			bcfg := backendConfig()
			srv, err := server.New(bcfg)
			if err != nil {
				t.Fatalf("server.New: %v", err)
			}
			// Every transaction faults: the first batch always exercises
			// the failure reply.
			srv.SetFaults(faults.MustNew(faults.Config{Seed: 1, ErrRate: 1}))
			if err := srv.Start(); err != nil {
				t.Fatalf("server.Start: %v", err)
			}
			t.Cleanup(func() { srv.Close() })
			addr := srv.Addr()
			if topology == "proxied" {
				addr = startProxy(t, proxyConfig(srv.Addr())).Addr()
			}

			ccfg := retryClient()
			ccfg.MaxRetries = 2
			c, err := client.DialConfig(addr, "basexor", 32, ccfg)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()

			rng := rand.New(rand.NewSource(4))
			_, err = c.Transcode(makeTxns(rng, 4, 32))
			if err == nil {
				t.Fatal("Transcode succeeded with every transaction faulting")
			}
			if !errors.Is(err, client.ErrBatchFault) {
				t.Fatalf("fault = %v, want ErrBatchFault (recoverable reply)", err)
			}
			if got := c.RetryStats().BatchErrors; got == 0 {
				t.Error("session counted no BatchError replies")
			}
		})
	}
}

// TestOldHelloRejected holds bxtproxy to the one-revision rule on both of
// its legs. Client leg: the committed v1–v4 Hello golden vectors are each
// answered with an Error frame naming the version, and then the connection
// closes. Backend leg: a backend answering HelloOK with another revision
// never serves, and the client's dial fails with ErrServer.
func TestOldHelloRejected(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	px := startProxy(t, proxyConfig(startBackend(t, backendConfig()).Addr()))
	for v := 1; v <= 4; v++ {
		raw, err := os.ReadFile(fmt.Sprintf("../trace/testdata/v%d_hello.hex", v))
		if err != nil {
			t.Fatal(err)
		}
		wire, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", px.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(wire); err != nil {
			t.Fatalf("writing v%d hello: %v", v, err)
		}
		br := bufio.NewReader(conn)
		ft, body, err := trace.ReadFrame(br, nil)
		if err != nil || ft != trace.FrameError {
			t.Fatalf("v%d hello answered with frame %#x, err %v; want Error", v, ft, err)
		}
		if want := fmt.Sprintf("version %d", v); !strings.Contains(string(body), want) {
			t.Errorf("v%d rejection %q does not name the version", v, body)
		}
		if _, _, err := trace.ReadFrame(br, nil); err != io.EOF {
			t.Errorf("after v%d rejection: read err %v, want EOF (closed)", v, err)
		}
		conn.Close()
	}

	// A backend that answers every Hello with a v3 HelloOK.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := trace.ReadFrame(conn, nil); err != nil {
					return
				}
				ok := trace.MarshalHelloOK(trace.HelloOK{Version: 3, BatchLimit: 4096})
				if trace.WriteFrame(conn, trace.FrameHelloOK, ok) == nil {
					io.Copy(io.Discard, conn)
				}
			}()
		}
	}()
	old := startProxy(t, proxyConfig(ln.Addr().String()))
	c, err := client.DialConfig(old.Addr(), "basexor", 32, client.Config{DialTimeout: 5 * time.Second})
	if !errors.Is(err, client.ErrServer) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("dial through a proxy fronting a v3 backend = %v, want ErrServer", err)
	}
}
