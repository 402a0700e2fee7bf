package proxy_test

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/testutil"
	"github.com/hpca18/bxt/internal/trace"
)

// TestRegistryDifferential proves the proxy is invisible to every codec in
// the registry: the same adversarial transaction stream sent direct to a
// gateway and through the proxy to the same gateway must produce (a)
// byte-identical encoded replies — two fresh server codecs fed the same
// stream, with the proxy relaying frame bodies verbatim — and (b) decodes
// that reproduce the source payloads exactly on both paths, including the
// decode-stateful schemes the proxy pins.
func TestRegistryDifferential(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const txnSize = 64
	const batchSize = 8

	bcfg := backendConfig()
	srv := startBackend(t, bcfg)
	px := startProxy(t, proxyConfig(srv.Addr()))

	for _, name := range scheme.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			// The generator's adversarial shapes keyed to the codec's
			// element geometry, then a deterministic shuffle into
			// read/write transactions.
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			const elem = 4 // the registry's Base+XOR element width
			payloads := testutil.Payloads(rng, txnSize, elem, core.DefaultZDRConst(elem))
			var txns []trace.Transaction
			for i, p := range payloads {
				kind := trace.Write
				if i%3 == 0 {
					kind = trace.Read
				}
				txns = append(txns, trace.Transaction{Addr: rng.Uint64(), Kind: kind, Data: p})
			}

			direct := streamRecords(t, srv.Addr(), name, txnSize, batchSize, txns)
			proxied := streamRecords(t, px.Addr(), name, txnSize, batchSize, txns)

			if len(direct) != len(proxied) {
				t.Fatalf("direct path returned %d records, proxied %d", len(direct), len(proxied))
			}
			dec := buildDecoder(t, name)
			decoded := make([]byte, txnSize)
			for i := range direct {
				if !bytes.Equal(direct[i].Data, proxied[i].Data) || !bytes.Equal(direct[i].Meta, proxied[i].Meta) {
					t.Fatalf("record %d: encoded bytes diverge between direct and proxied paths", i)
				}
				e := core.Encoded{Data: proxied[i].Data, Meta: proxied[i].Meta, MetaBits: direct[i].MetaBits}
				if err := dec.Decode(decoded, &e); err != nil {
					t.Fatalf("record %d: decode: %v", i, err)
				}
				if !bytes.Equal(decoded, txns[i].Data) {
					t.Fatalf("record %d: proxied reply does not decode back to its source", i)
				}
			}
		})
	}
}

// decodedRecord is one encoded record plus the session's metadata width.
type decodedRecord struct {
	Data, Meta []byte
	MetaBits   int
}

// streamRecords runs one fresh session against addr, sends txns in fixed
// batches, and returns every encoded record in order.
func streamRecords(t *testing.T, addr, schemeName string, txnSize, batchSize int, txns []trace.Transaction) []decodedRecord {
	t.Helper()
	c, err := client.DialConfig(addr, schemeName, txnSize, retryClient())
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	var out []decodedRecord
	for off := 0; off < len(txns); off += batchSize {
		end := off + batchSize
		if end > len(txns) {
			end = len(txns)
		}
		reply, err := c.Transcode(txns[off:end])
		if err != nil {
			t.Fatalf("Transcode batch at %d: %v", off, err)
		}
		for _, rec := range reply.Records {
			out = append(out, decodedRecord{
				Data:     append([]byte(nil), rec.Data...),
				Meta:     append([]byte(nil), rec.Meta...),
				MetaBits: c.MetaBits(),
			})
		}
	}
	return out
}
