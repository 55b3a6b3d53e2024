package dolevstrong

import (
	"bytes"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

func TestWireRoundTrip(t *testing.T) {
	reg := wire.NewRegistry()
	RegisterWire(reg)
	ring, err := sig.NewHMACRing(3, []byte("d"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChain(sig.NewSigner(ring, 0), "tag", types.Value("v"))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.Extend(sig.NewSigner(ring, 1), "tag", 0, types.Value("v"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Relay{
		{Sender: 0, V: types.Value("v"), Chain: c},
		{Sender: 0, V: types.Value("v"), Chain: c2},
	} {
		b1, err := wire.EncodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		gotAny, err := reg.DecodePayload(b1)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := gotAny.(Relay)
		if !ok {
			t.Fatalf("decoded %T", gotAny)
		}
		if !got.Chain.Valid(ring, "tag", 0, types.Value("v"), got.Chain.Len()) {
			t.Error("decoded chain no longer valid")
		}
		b2, err := wire.EncodePayload(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Error("round trip not byte-identical")
		}
	}
}
