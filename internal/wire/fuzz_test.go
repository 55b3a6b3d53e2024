package wire

import (
	"bytes"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// fuzzPayload is a payload with several field shapes for the corpus.
type fuzzPayload struct {
	A int
	B []byte
	C bool
}

func (fuzzPayload) Type() string { return "fuzz/p" }
func (fuzzPayload) Words() int   { return 1 }

func (p fuzzPayload) PutBody(w *Writer) {
	w.PutInt(p.A)
	w.PutBytes(p.B)
	w.PutBool(p.C)
}

func fuzzRegistry() *Registry {
	reg := NewRegistry()
	reg.MustRegister(Codec{
		Type: "fuzz/p",
		Decode: func(r *Reader) (proto.Payload, error) {
			return fuzzPayload{A: r.Int(), B: r.Bytes(), C: r.Bool()}, r.Err()
		},
	})
	return reg
}

// FuzzDecodePayload: arbitrary bytes must never panic the registry
// decoder; valid frames must round-trip.
func FuzzDecodePayload(f *testing.F) {
	reg := fuzzRegistry()
	seed, err := EncodePayload(fuzzPayload{A: -3, B: []byte("hello"), C: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("fuzz/p"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := reg.DecodePayload(data) // must not panic
		if err != nil {
			return
		}
		// A successfully decoded frame must re-encode.
		if _, err := EncodePayload(p); err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
	})
}

// FuzzReaderPrimitives: the Reader must be total over arbitrary inputs.
func FuzzReaderPrimitives(f *testing.F) {
	w := NewWriter()
	w.PutUint64(7)
	w.PutBytes([]byte("x"))
	w.PutBool(true)
	w.PutSig(sig.Signature{1, 2})
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.Uint64()
		_ = r.Bytes()
		_ = r.Bool()
		_ = r.Sig()
		_ = r.Value()
		_ = r.BitSet()
		_ = r.Cert()
		_ = r.Close()
	})
}

// FuzzCertRoundTrip targets the threshold-certificate encoding: seeds
// are real certificates in both encodings (aggregate carries quorum
// component signatures, compact carries one); a decodable input must
// re-encode to a byte-identical, re-decodable frame.
func FuzzCertRoundTrip(f *testing.F) {
	ring, err := sig.NewHMACRing(7, []byte("fuzz-cert"))
	if err != nil {
		f.Fatal(err)
	}
	msg := []byte("fuzzed message")
	for _, mode := range []threshold.Mode{threshold.ModeAggregate, threshold.ModeCompact} {
		scheme, err := threshold.New(ring, 5, mode, []byte("d"))
		if err != nil {
			f.Fatal(err)
		}
		shares := make([]threshold.Share, 0, 5)
		for i := 0; i < 5; i++ {
			sh, err := scheme.SignShare(types.ProcessID(i), msg)
			if err != nil {
				f.Fatal(err)
			}
			shares = append(shares, sh)
		}
		cert, err := scheme.Combine(msg, shares)
		if err != nil {
			f.Fatal(err)
		}
		w := NewWriter()
		w.PutCert(cert)
		f.Add(w.Bytes())
	}
	nilCert := NewWriter()
	nilCert.PutCert(nil)
	f.Add(nilCert.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		c := r.Cert() // must not panic
		if r.Close() != nil {
			return
		}
		w := NewWriter()
		w.PutCert(c)
		enc := w.Bytes()
		r2 := NewReader(enc)
		c2 := r2.Cert()
		if err := r2.Close(); err != nil {
			t.Fatalf("re-encoded certificate does not decode: %v", err)
		}
		w2 := NewWriter()
		w2.PutCert(c2)
		if !bytes.Equal(enc, w2.Bytes()) {
			t.Fatalf("certificate encoding is not a fixed point:\n first: %x\nsecond: %x", enc, w2.Bytes())
		}
	})
}
