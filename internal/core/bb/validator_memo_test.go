package bb

import (
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// TestValidatorMemo: the Validator answers a byte-identical repeat of the
// last envelope from memory — positive or negative — and nothing else.
// Verifications are counted below an uncached, aggregate-mode setup, so
// every real check (a sender signature: 1, an idk certificate: t+1 shares)
// is visible.
func TestValidatorMemo(t *testing.T) {
	const n = 5
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("bb-memo"))
	if err != nil {
		t.Fatal(err)
	}
	counter := sig.NewCounting(ring)
	crypto := proto.NewCrypto(params, counter, threshold.ModeAggregate, nil, proto.WithoutVerifyCache())
	const sender = types.ProcessID(3)
	bv := NewValidator(crypto, "t", sender, params.N)

	senderEnv := func(v string) types.Value {
		s, err := crypto.Signer(sender).Sign(senderBase("t", sender, types.Value(v)))
		if err != nil {
			t.Fatal(err)
		}
		return EncodeSenderValue(SenderValue{V: types.Value(v), Sig: s})
	}
	// check validates env and reports how many signatures that verified.
	check := func(what string, env types.Value, want bool) int64 {
		t.Helper()
		before := counter.Verifies()
		if got := bv.Validate(env); got != want {
			t.Fatalf("%s: Validate = %t, want %t", what, got, want)
		}
		return counter.Verifies() - before
	}

	x := senderEnv("x")
	if d := check("first x", x, true); d != 1 {
		t.Errorf("first validation verified %d signatures, want 1", d)
	}
	for i := 0; i < 3; i++ {
		if d := check("repeated x", x.Clone(), true); d != 0 {
			t.Errorf("byte-identical repeat verified %d signatures, want 0", d)
		}
	}

	// The memo holds its own copy: the caller's slice changing under it
	// is a different envelope, verified again and refused.
	mutated := x.Clone()
	check("x before the mutation", mutated, true)
	mutated[len(mutated)-1] ^= 1 // last signature byte
	if d := check("mutated x", mutated, false); d != 1 {
		t.Errorf("mutated envelope verified %d signatures, want 1 (re-verified)", d)
	}
	// ...and the negative verdict is remembered too.
	if d := check("mutated x again", mutated, false); d != 0 {
		t.Errorf("repeated invalid envelope verified %d signatures, want 0", d)
	}
	if d := check("undecodable", types.Value{99}, false); d != 0 {
		t.Errorf("undecodable envelope verified %d signatures", d)
	}
	check("undecodable again", types.Value{99}, false)
	check("bottom", types.Bottom, false)
	check("empty", types.Value{}, false)

	// An equivocating sender: two valid envelopes alternating. One entry
	// cannot hold both, so each is a miss — and each verdict is right.
	y := senderEnv("y")
	for i := 0; i < 3; i++ {
		if d := check("alternating x", x, true); d != 1 {
			t.Errorf("round %d: x after y verified %d signatures, want 1", i, d)
		}
		if d := check("alternating y", y, true); d != 1 {
			t.Errorf("round %d: y after x verified %d signatures, want 1", i, d)
		}
	}
	// A signature moved onto another value stays invalid after the value
	// it belongs to was accepted.
	sv, _, err := DecodeValue(x)
	if err != nil {
		t.Fatal(err)
	}
	check("x", x, true)
	check("transplanted signature", EncodeSenderValue(SenderValue{V: types.Value("y"), Sig: sv.Sig}), false)

	// An idk certificate after a sender envelope is a miss (t+1 share
	// checks), then a hit; so is the sender envelope after it.
	small := crypto.Threshold(params.SmallQuorum())
	var shares []threshold.Share
	for id := types.ProcessID(0); int(id) < params.SmallQuorum(); id++ {
		sh, err := small.SignShare(id, idkBase("t", 2))
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	cert, err := small.Combine(idkBase("t", 2), shares)
	if err != nil {
		t.Fatal(err)
	}
	idk := EncodeIDKCert(IDKCert{Phase: 2, Cert: cert})
	check("x", x, true)
	if d := check("idk after x", idk, true); d != int64(params.SmallQuorum()) {
		t.Errorf("idk certificate after a sender envelope verified %d signatures, want %d", d, params.SmallQuorum())
	}
	if d := check("idk again", idk, true); d != 0 {
		t.Errorf("repeated idk certificate verified %d signatures, want 0", d)
	}
	if d := check("x after idk", x, true); d != 1 {
		t.Errorf("sender envelope after an idk certificate verified %d signatures, want 1", d)
	}

	// Validators do not share verdicts: a second machine's validator
	// checks the same bytes itself.
	other := NewValidator(crypto, "t", sender, params.N)
	before := counter.Verifies()
	if !other.Validate(x) {
		t.Fatal("second validator rejected x")
	}
	if d := counter.Verifies() - before; d != 1 {
		t.Errorf("second validator verified %d signatures, want 1", d)
	}
}
