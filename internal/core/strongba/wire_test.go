package strongba

import (
	"bytes"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

func TestWireRoundTrip(t *testing.T) {
	reg := wire.NewRegistry()
	RegisterWire(reg)
	ring, err := sig.NewHMACRing(3, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	th, err := threshold.New(ring, 2, threshold.ModeCompact, []byte("d"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	var shares []threshold.Share
	for _, id := range []types.ProcessID{0, 1} {
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
	s, err := ring.Sign(2, msg)
	if err != nil {
		t.Fatal(err)
	}

	payloads := []proto.Payload{
		InputShare{V: types.One, Share: s},
		Propose{V: types.Zero, Cert: cert},
		DecideShare{V: types.One, Share: s},
		DecideMsg{V: types.One, Cert: cert},
		Fallback{V: types.One, Proof: cert},
		Fallback{}, // the bare ⟨fallback, ⊥, ⊥⟩ announcement
	}
	for _, p := range payloads {
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
			t.Errorf("%s: round trip not byte-identical", p.Type())
		}
	}
}
