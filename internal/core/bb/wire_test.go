package bb

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
	ring, err := sig.NewHMACRing(3, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ring.Sign(0, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	payloads := []proto.Payload{
		SenderMsg{V: types.Value("v"), Sig: s},
		HelpReq{Phase: 7},
		Reply{Phase: 2, Val: types.Value("env")},
		IdkShare{Phase: 3, Share: s},
		Vetted{Phase: 4, Val: types.Value("env")},
	}
	for _, p := range payloads {
		b1, err := reg.EncodePayload(p)
		if err != nil {
			t.Fatalf("encode %s: %v", p.Type(), err)
		}
		got, err := reg.DecodePayload(b1)
		if err != nil {
			t.Fatalf("decode %s: %v", p.Type(), err)
		}
		b2, err := reg.EncodePayload(got)
		if err != nil {
			t.Fatalf("re-encode %s: %v", p.Type(), err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: round trip not byte-identical", p.Type())
		}
	}
}

// TestDecodedViewsStayInsideTheirValue: DecodeValue reads the envelope
// in place, and every byte string it returns ends its capacity where it
// ends, so appending to one reallocates and the envelope never changes.
func TestDecodedViewsStayInsideTheirValue(t *testing.T) {
	params, err := types.NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	crypto, err := proto.Setup(params, proto.Derived("views", "views-dealer"), threshold.ModeAggregate)
	if err != nil {
		t.Fatal(err)
	}
	s, err := crypto.Signer(0).Sign([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	small := crypto.Threshold(params.T + 1)
	shares := make([]threshold.Share, small.K())
	for i := range shares {
		if shares[i], err = small.SignShare(types.ProcessID(i), []byte("idk")); err != nil {
			t.Fatal(err)
		}
	}
	cert, err := small.Combine([]byte("idk"), shares)
	if err != nil {
		t.Fatal(err)
	}

	capped := func(name string, b []byte) {
		t.Helper()
		if len(b) == 0 || cap(b) != len(b) {
			t.Errorf("%s: len %d, cap %d; want a non-empty view with cap == len", name, len(b), cap(b))
		}
	}
	env := EncodeSenderValue(SenderValue{V: types.Value("value"), Sig: s})
	want := env.Clone()
	sv, _, err := DecodeValue(env)
	if err != nil {
		t.Fatal(err)
	}
	capped("SenderValue.V", sv.V)
	capped("SenderValue.Sig", sv.Sig)
	_ = append(sv.V, "overwritten"...)
	_ = append(sv.Sig, "overwritten"...)
	if !env.Equal(want) {
		t.Errorf("appending to the decoded value and signature changed the envelope: %x, want %x", []byte(env), []byte(want))
	}

	env = EncodeIDKCert(IDKCert{Phase: 1, Cert: cert})
	want = env.Clone()
	_, idk, err := DecodeValue(env)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range idk.Cert.Shares {
		capped("IDKCert share", sh)
		idk.Cert.Shares[i] = append(sh, "overwritten"...)
	}
	if !env.Equal(want) {
		t.Errorf("appending to the decoded certificate's shares changed the envelope: %x, want %x", []byte(env), []byte(want))
	}
}
