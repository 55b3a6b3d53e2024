package bb

import (
	"errors"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

func setup(t *testing.T, n int) (*proto.Crypto, types.Params) {
	t.Helper()
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("bb-test"))
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")), params
}

func run(t *testing.T, n int, sender types.ProcessID, input types.Value, adv sim.Adversary) (*sim.Result, map[types.ProcessID]*Machine) {
	t.Helper()
	crypto, params := setup(t, n)
	machines := make(map[types.ProcessID]*Machine)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m := NewMachine(Config{
				Params: params,
				Crypto: crypto,
				ID:     id,
				Sender: sender,
				Input:  input,
				Tag:    "t",
			})
			machines[id] = m
			return m
		},
		Adversary: adv,
		MaxTicks:  MaxTicks(params, 0, 0) * 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range machines {
		if m.Failed() != nil {
			t.Fatalf("machine %v: %v", id, m.Failed())
		}
	}
	return res, machines
}

func TestCorrectSenderValidity(t *testing.T) {
	for _, n := range []int{3, 5, 9} {
		res, _ := run(t, n, 0, types.Value("payload"), nil)
		if res.TimedOut {
			t.Fatalf("n=%d: timed out", n)
		}
		if !res.AllDecided() {
			t.Fatalf("n=%d: not all decided", n)
		}
		v, ok := res.Agreement()
		if !ok || !v.Equal(types.Value("payload")) {
			t.Errorf("n=%d: decided %v (%v), want payload", n, v, ok)
		}
	}
}

func TestCorrectSenderLinearWords(t *testing.T) {
	// With a correct sender and f=0 every vetting phase is silent: words
	// are the sender's n messages plus the weak BA's O(n).
	for _, n := range []int{11, 41, 101} {
		res, _ := run(t, n, 0, types.Value("v"), nil)
		words := res.Report.Honest.Words
		if max := int64(14 * n); words > max {
			t.Errorf("n=%d: %d words exceed linear bound %d", n, words, max)
		}
	}
}

func TestCrashedSenderDecidesBottom(t *testing.T) {
	res, _ := run(t, 9, 0, types.Value("v"), adversary.NewCrash(0))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("disagreement")
	}
	if !v.IsBottom() {
		t.Errorf("decided %v, want ⊥ for a silent sender", v)
	}
}

func TestValidityUnderMaxCrashes(t *testing.T) {
	// f = t crashes not including the sender: validity must still hold.
	// n=9, t=4; crashing 4 leaves 5 alive, and the weak BA quorum is 7 —
	// unreachable, so the weak BA goes through its fallback; strong
	// unanimity there still forces the sender's value.
	res, _ := run(t, 9, 0, types.Value("v"), adversary.NewCrash(1, 2, 3, 4))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Errorf("decided %v (%v), want v", v, ok)
	}
}

func TestCrashedSenderAndLeaders(t *testing.T) {
	// Sender plus the first vetting leader crash (f=2 at n=9, below the
	// fallback threshold... threshold is (9-4-1)/2=2, f=2 not below; use
	// n=11, t=5, threshold (11-5-1)/2=2 — still not; just assert
	// agreement and termination).
	res, _ := run(t, 11, 0, types.Value("v"), adversary.NewCrash(0, 1))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("disagreement")
	}
	if !v.IsBottom() {
		t.Errorf("decided %v, want ⊥", v)
	}
}

// equivSender sends differently signed values to the two halves at tick 0.
type equivSender struct {
	adversary.Core
	sent bool
}

func (a *equivSender) Corruptions() []sim.Corruption {
	return []sim.Corruption{{ID: 0}}
}

// Quiescent implements sim.Adversary: its one action is its first Act.
func (a *equivSender) Quiescent(types.Tick) bool { return a.sent }

func (a *equivSender) Act(now types.Tick, _ []sim.Message) []sim.Message {
	if a.sent {
		return nil
	}
	a.sent = true
	signer := a.Env.Crypto.Signer(0)
	mk := func(v types.Value) SenderMsg {
		s, err := signer.Sign(senderBase("t", 0, v))
		if err != nil {
			return SenderMsg{}
		}
		return SenderMsg{V: v, Sig: s}
	}
	ma, mb := mk(types.Value("a")), mk(types.Value("b"))
	var msgs []sim.Message
	for i := 1; i < a.Env.Params.N; i++ {
		p := ma
		if i%2 == 0 {
			p = mb
		}
		msgs = append(msgs, sim.Message{From: 0, To: types.ProcessID(i), Payload: p})
	}
	return msgs
}

func TestEquivocatingSenderAgreement(t *testing.T) {
	res, _ := run(t, 9, 0, nil, &equivSender{})
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("agreement violated under sender equivocation")
	}
	// Any of a, b, ⊥ is acceptable for a Byzantine sender.
	if !v.IsBottom() && !v.Equal(types.Value("a")) && !v.Equal(types.Value("b")) {
		t.Errorf("decided out-of-run value %v", v)
	}
}

// stingySender delivers the signed value to exactly one process.
type stingySender struct {
	adversary.Core
	sent bool
}

func (a *stingySender) Corruptions() []sim.Corruption {
	return []sim.Corruption{{ID: 0}}
}

// Quiescent implements sim.Adversary: its one action is its first Act.
func (a *stingySender) Quiescent(types.Tick) bool { return a.sent }

func (a *stingySender) Act(now types.Tick, _ []sim.Message) []sim.Message {
	if a.sent {
		return nil
	}
	a.sent = true
	signer := a.Env.Crypto.Signer(0)
	v := types.Value("rare")
	s, err := signer.Sign(senderBase("t", 0, v))
	if err != nil {
		return nil
	}
	return []sim.Message{{From: 0, To: 5, Payload: SenderMsg{V: v, Sig: s}}}
}

func TestStingySenderStillAgrees(t *testing.T) {
	res, _ := run(t, 9, 0, nil, &stingySender{})
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("disagreement")
	}
	// The single holder propagates the value through the vetting phases;
	// deciding "rare" or ⊥ are both legal.
	if !v.IsBottom() && !v.Equal(types.Value("rare")) {
		t.Errorf("decided %v", v)
	}
}

func TestReplayAttackSafety(t *testing.T) {
	crypto, params := setup(t, 9)
	for seed := int64(1); seed <= 3; seed++ {
		res, err := sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				return NewMachine(Config{
					Params: params, Crypto: crypto, ID: id,
					Sender: 0, Input: types.Value("v"), Tag: "t",
				})
			},
			Adversary: adversary.NewReplay(seed, 300, 3, 7),
			MaxTicks:  5000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("seed=%d: not all decided", seed)
		}
		v, ok := res.Agreement()
		if !ok {
			t.Fatalf("seed=%d: replay broke agreement", seed)
		}
		// Sender is correct here, so validity must give exactly v.
		if !v.Equal(types.Value("v")) {
			t.Errorf("seed=%d: decided %v, want v", seed, v)
		}
	}
}

func TestValueEncoding(t *testing.T) {
	crypto, _ := setup(t, 5)
	signer := crypto.Signer(0)
	s, err := signer.Sign(senderBase("t", 0, types.Value("x")))
	if err != nil {
		t.Fatal(err)
	}
	env := EncodeSenderValue(SenderValue{V: types.Value("x"), Sig: s})
	sv, idk, err := DecodeValue(env)
	if err != nil || sv == nil || idk != nil {
		t.Fatalf("decode: %v %v %v", sv, idk, err)
	}
	if !sv.V.Equal(types.Value("x")) {
		t.Errorf("inner value %v", sv.V)
	}

	small := crypto.Threshold(3)
	var shares []threshold.Share
	for _, id := range []types.ProcessID{0, 1, 2} {
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
	env2 := EncodeIDKCert(IDKCert{Phase: 2, Cert: cert})
	sv2, idk2, err := DecodeValue(env2)
	if err != nil || sv2 != nil || idk2 == nil {
		t.Fatalf("decode idk: %v %v %v", sv2, idk2, err)
	}
	if idk2.Phase != 2 {
		t.Errorf("phase %d", idk2.Phase)
	}

	if _, _, err := DecodeValue(types.Bottom); !errors.Is(err, ErrBadBBValue) {
		t.Errorf("bottom decoded: %v", err)
	}
	if _, _, err := DecodeValue(types.Value{99}); !errors.Is(err, ErrBadBBValue) {
		t.Errorf("bad kind decoded: %v", err)
	}
	if _, _, err := DecodeValue(append(env.Clone(), 0)); !errors.Is(err, ErrBadBBValue) {
		t.Errorf("trailing bytes decoded: %v", err)
	}
}

func TestValidator(t *testing.T) {
	crypto, params := setup(t, 5)
	v := NewValidator(crypto, "t", 0, params.N)

	// Valid sender value.
	s, _ := crypto.Signer(0).Sign(senderBase("t", 0, types.Value("x")))
	good := EncodeSenderValue(SenderValue{V: types.Value("x"), Sig: s})
	if !v.Validate(good) {
		t.Error("valid sender value rejected")
	}
	// Signed by the wrong process.
	s1, _ := crypto.Signer(1).Sign(senderBase("t", 0, types.Value("x")))
	bad := EncodeSenderValue(SenderValue{V: types.Value("x"), Sig: s1})
	if v.Validate(bad) {
		t.Error("non-sender signature accepted")
	}
	// Signature over a different value.
	swap := EncodeSenderValue(SenderValue{V: types.Value("y"), Sig: s})
	if v.Validate(swap) {
		t.Error("transplanted signature accepted")
	}
	// Idk cert with too few shares cannot even combine; a forged cert
	// must fail verification.
	forged := EncodeIDKCert(IDKCert{Phase: 1, Cert: &threshold.Cert{K: 3, Signers: types.NewBitSet(5), Tag: []byte("junk")}})
	if v.Validate(forged) {
		t.Error("forged idk cert accepted")
	}
	// Phase out of range.
	small := crypto.Threshold(3)
	var shares []threshold.Share
	for _, id := range []types.ProcessID{0, 1, 2} {
		sh, _ := small.SignShare(id, idkBase("t", 99))
		shares = append(shares, sh)
	}
	cert, err := small.Combine(idkBase("t", 99), shares)
	if err != nil {
		t.Fatal(err)
	}
	out := EncodeIDKCert(IDKCert{Phase: 99, Cert: cert})
	if v.Validate(out) {
		t.Error("out-of-range phase accepted")
	}
	if v.Name() != "BB_valid" {
		t.Errorf("Name = %q", v.Name())
	}
}

func TestAdaptiveWordsVsCrashes(t *testing.T) {
	// The envelope O(n(f+1)): crashing the sender and early leaders adds
	// roughly one non-silent phase (3n words) per crash.
	n := 21
	for _, f := range []int{1, 2, 3} {
		res, _ := run(t, n, 0, types.Value("v"), adversary.NewCrash(adversary.CrashSet(f, true)...))
		if !res.AllDecided() {
			t.Fatalf("f=%d: not all decided", f)
		}
		words := res.Report.Honest.Words
		if max := int64(14 * n * (f + 1)); words > max {
			t.Errorf("f=%d: words=%d exceed adaptive bound %d", f, words, max)
		}
	}
}
