package wba

import (
	"bytes"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// roundTrip encodes, decodes, and re-encodes, requiring byte equality —
// a strong determinism + fidelity check.
func roundTrip(t *testing.T, reg *wire.Registry, p proto.Payload) proto.Payload {
	t.Helper()
	b1, err := wire.EncodePayload(p)
	if err != nil {
		t.Fatalf("encode %s: %v", p.Type(), err)
	}
	got, err := reg.DecodePayload(b1)
	if err != nil {
		t.Fatalf("decode %s: %v", p.Type(), err)
	}
	b2, err := wire.EncodePayload(got)
	if err != nil {
		t.Fatalf("re-encode %s: %v", p.Type(), err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s: round trip not byte-identical", p.Type())
	}
	return got
}

func TestWireRoundTrip(t *testing.T) {
	reg := wire.NewRegistry()
	RegisterWire(reg)

	ring, err := sig.NewHMACRing(5, []byte("w"))
	if err != nil {
		t.Fatal(err)
	}
	th, err := threshold.New(ring, 3, threshold.ModeAggregate, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	var shares []threshold.Share
	for _, id := range []types.ProcessID{0, 2, 4} {
		sh, err := th.SignShare(id, msg)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	cert, err := th.Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ring.Sign(1, msg)
	if err != nil {
		t.Fatal(err)
	}

	payloads := []proto.Payload{
		Propose{Phase: 3, V: types.Value("v")},
		Vote{Phase: 1, V: types.Value("v"), Share: s},
		CommitInfo{Phase: 2, V: types.Value("v"), Cert: cert, Level: 1},
		Commit{Phase: 2, V: types.Value("v"), Cert: cert, Level: 2},
		Decide{Phase: 4, V: types.Value("v"), Share: s},
		Finalized{Phase: 4, V: types.Value("v"), Cert: cert},
		HelpReq{Share: s},
		Help{V: types.Value("v"), Proof: cert, ProofPhase: 2},
		Help{V: types.Bottom, Proof: nil, ProofPhase: 0},
		FallbackCert{Cert: cert, V: types.Value("v"), Proof: cert, ProofPhase: 1},
		FallbackCert{Cert: cert, V: types.Bottom, Proof: nil, ProofPhase: 0},
	}
	for _, p := range payloads {
		got := roundTrip(t, reg, p)
		if got.Type() != p.Type() || got.Words() != p.Words() {
			t.Errorf("%s: metadata changed after round trip", p.Type())
		}
	}

	// Decoded certificate must still verify.
	f, ok := roundTrip(t, reg, Finalized{Phase: 4, V: types.Value("v"), Cert: cert}).(Finalized)
	if !ok {
		t.Fatal("wrong decoded type")
	}
	if !th.Verify(msg, f.Cert) {
		t.Error("decoded cert no longer verifies")
	}
}
