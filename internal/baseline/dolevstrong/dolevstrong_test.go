package dolevstrong

import (
	"testing"

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
	ring, err := sig.NewHMACRing(n, []byte("ds-test"))
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")), params
}

func factory(crypto *proto.Crypto, params types.Params, sender types.ProcessID, input types.Value, dur int) func(types.ProcessID) proto.Machine {
	return func(id types.ProcessID) proto.Machine {
		return NewMachine(Config{
			Params:   params,
			Crypto:   crypto,
			ID:       id,
			Sender:   sender,
			Input:    input,
			Tag:      "test",
			RoundDur: dur,
		})
	}
}

func TestHonestSenderAllDecide(t *testing.T) {
	for _, n := range []int{3, 5, 9} {
		crypto, params := setup(t, n)
		res, err := sim.Run(sim.Config{
			Params:   params,
			Crypto:   crypto,
			Factory:  factory(crypto, params, 0, types.Value("v"), 1),
			MaxTicks: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("n=%d: not all decided", n)
		}
		v, ok := res.Agreement()
		if !ok || !v.Equal(types.Value("v")) {
			t.Errorf("n=%d: agreement %v %v", n, v, ok)
		}
	}
}

func TestHonestSenderDoubleDuration(t *testing.T) {
	crypto, params := setup(t, 5)
	res, err := sim.Run(sim.Config{
		Params:   params,
		Crypto:   crypto,
		Factory:  factory(crypto, params, 2, types.Value("w"), 2),
		MaxTicks: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("w")) {
		t.Errorf("agreement %v %v", v, ok)
	}
}

type crashAdv struct {
	ids []types.ProcessID
	env sim.Env
}

func (a *crashAdv) Init(env sim.Env) { a.env = env }
func (a *crashAdv) Corruptions() []sim.Corruption {
	cs := make([]sim.Corruption, len(a.ids))
	for i, id := range a.ids {
		cs[i] = sim.Corruption{ID: id}
	}
	return cs
}
func (a *crashAdv) Observe(types.Tick, types.ProcessID, []proto.Incoming) {}
func (a *crashAdv) Act(types.Tick, []sim.Message) []sim.Message           { return nil }
func (a *crashAdv) Quiescent(types.Tick) bool                             { return true }

func TestCrashedSenderDecidesBottom(t *testing.T) {
	crypto, params := setup(t, 5)
	res, err := sim.Run(sim.Config{
		Params:    params,
		Crypto:    crypto,
		Factory:   factory(crypto, params, 0, types.Value("v"), 1),
		Adversary: &crashAdv{ids: []types.ProcessID{0}},
		MaxTicks:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.IsBottom() {
		t.Errorf("agreement %v %v, want ⊥", v, ok)
	}
}

// equivocator is a Byzantine sender that sends "a" to the first half and
// "b" to the second half in round 1.
type equivocator struct {
	crashAdv
	sent bool
}

func (a *equivocator) Corruptions() []sim.Corruption {
	return []sim.Corruption{{ID: 0}}
}

func (a *equivocator) Act(now types.Tick, _ []sim.Message) []sim.Message {
	if a.sent {
		return nil
	}
	a.sent = true
	signer := a.env.Crypto.Signer(0)
	va, vb := types.Value("a"), types.Value("b")
	ca, err := NewChain(signer, "test", va)
	if err != nil {
		return nil
	}
	cb, err := NewChain(signer, "test", vb)
	if err != nil {
		return nil
	}
	var msgs []sim.Message
	for i := 1; i < a.env.Params.N; i++ {
		v, c := va, ca
		if i%2 == 0 {
			v, c = vb, cb
		}
		msgs = append(msgs, sim.Message{
			From: 0, To: types.ProcessID(i),
			Payload: Relay{Sender: 0, V: v, Chain: c},
		})
	}
	return msgs
}

func TestEquivocatingSenderAgreementHolds(t *testing.T) {
	crypto, params := setup(t, 7)
	res, err := sim.Run(sim.Config{
		Params:    params,
		Crypto:    crypto,
		Factory:   factory(crypto, params, 0, nil, 1),
		Adversary: &equivocator{},
		MaxTicks:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("agreement violated under equivocation")
	}
	if !v.IsBottom() {
		t.Errorf("equivocation should yield ⊥, got %v", v)
	}
}

// lateInjector corrupts the sender, stays silent until the LAST round, and
// then sends a fresh 1-signature chain to a single process. The chain is
// too short for that round, so no honest process may extract it.
type lateInjector struct {
	crashAdv
	params types.Params
	sent   bool
}

func (a *lateInjector) Corruptions() []sim.Corruption {
	return []sim.Corruption{{ID: 0}}
}

func (a *lateInjector) Act(now types.Tick, _ []sim.Message) []sim.Message {
	last := types.Tick(a.env.Params.T) // sending round t+1 starts at tick t
	if a.sent || now < last {
		return nil
	}
	a.sent = true
	c, err := NewChain(a.env.Crypto.Signer(0), "test", types.Value("late"))
	if err != nil {
		return nil
	}
	return []sim.Message{{
		From: 0, To: 1,
		Payload: Relay{Sender: 0, V: types.Value("late"), Chain: c},
	}}
}

func TestLateShortChainRejected(t *testing.T) {
	crypto, params := setup(t, 7)
	res, err := sim.Run(sim.Config{
		Params:    params,
		Crypto:    crypto,
		Factory:   factory(crypto, params, 0, nil, 1),
		Adversary: &lateInjector{params: params},
		MaxTicks:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("agreement violated")
	}
	if !v.IsBottom() {
		t.Errorf("late short chain was accepted: decided %v", v)
	}
}

func TestFailureFreeComplexityQuadratic(t *testing.T) {
	// At f=0 every process relays the sender's value once: words grow
	// roughly as 3n² (2-sig chains to n recipients) — the baseline cost
	// the paper's Section 4 discusses.
	for _, n := range []int{5, 11, 21} {
		crypto, params := setup(t, n)
		res, err := sim.Run(sim.Config{
			Params:   params,
			Crypto:   crypto,
			Factory:  factory(crypto, params, 0, types.Value("v"), 1),
			MaxTicks: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		words := res.Report.Honest.Words
		lo, hi := int64(n*n), int64(6*n*n)
		if words < lo || words > hi {
			t.Errorf("n=%d: words = %d, want within [%d, %d]", n, words, lo, hi)
		}
	}
}

func TestChainValidation(t *testing.T) {
	crypto, params := setup(t, 5)
	_ = params
	v := types.Value("v")
	s0 := crypto.Signer(0)
	s1 := crypto.Signer(1)
	c0, err := NewChain(s0, "tag", v)
	if err != nil {
		t.Fatal(err)
	}
	if !c0.Valid(crypto.Scheme, "tag", 0, v, 1) {
		t.Fatal("fresh chain invalid")
	}
	if c0.Valid(crypto.Scheme, "tag", 0, v, 2) {
		t.Error("minLen not enforced")
	}
	if c0.Valid(crypto.Scheme, "other", 0, v, 1) {
		t.Error("tag not bound")
	}
	if c0.Valid(crypto.Scheme, "tag", 1, v, 1) {
		t.Error("sender not bound (first signer)")
	}
	if c0.Valid(crypto.Scheme, "tag", 0, types.Value("w"), 1) {
		t.Error("value not bound")
	}

	c01, err := c0.Extend(s1, "tag", 0, v)
	if err != nil {
		t.Fatal(err)
	}
	if !c01.Valid(crypto.Scheme, "tag", 0, v, 2) {
		t.Fatal("extended chain invalid")
	}
	if !c01.Has(1) || c01.Has(2) {
		t.Error("Has misreports")
	}

	// Duplicate signer.
	dup := c01.Clone()
	dup.Signers = append(dup.Signers, 1)
	dup.Sigs = append(dup.Sigs, dup.Sigs[1].Clone())
	if dup.Valid(crypto.Scheme, "tag", 0, v, 1) {
		t.Error("duplicate signer accepted")
	}

	// Mismatched lengths.
	broken := c01.Clone()
	broken.Sigs = broken.Sigs[:1]
	if broken.Valid(crypto.Scheme, "tag", 0, v, 1) {
		t.Error("ragged chain accepted")
	}

	// Tampered signature.
	bad := c01.Clone()
	bad.Sigs[0][0] ^= 1
	if bad.Valid(crypto.Scheme, "tag", 0, v, 1) {
		t.Error("tampered chain accepted")
	}

	// Empty chain.
	if (Chain{}).Valid(crypto.Scheme, "tag", 0, v, 0) {
		t.Error("empty chain accepted")
	}

	// Clone independence.
	cl := c01.Clone()
	cl.Sigs[0][0] ^= 0xFF
	if !c01.Valid(crypto.Scheme, "tag", 0, v, 2) {
		t.Error("clone aliases original")
	}
}

func TestRelayWords(t *testing.T) {
	crypto, _ := setup(t, 5)
	c, err := NewChain(crypto.Signer(0), "t", types.Value("v"))
	if err != nil {
		t.Fatal(err)
	}
	r := Relay{Sender: 0, V: types.Value("v"), Chain: c}
	if r.Words() != 2 {
		t.Errorf("1-sig relay words = %d, want 2", r.Words())
	}
	c2, _ := c.Extend(crypto.Signer(1), "t", 0, types.Value("v"))
	r2 := Relay{Sender: 0, V: types.Value("v"), Chain: c2}
	if r2.Words() != 3 {
		t.Errorf("2-sig relay words = %d, want 3", r2.Words())
	}
}

func TestMachineTiming(t *testing.T) {
	crypto, params := setup(t, 7) // t=3
	m := NewMachine(Config{Params: params, Crypto: crypto, ID: 1, Sender: 0, Tag: "x", RoundDur: 2})
	if m.Rounds() != 5 {
		t.Errorf("Rounds = %d", m.Rounds())
	}
	if m.Duration() != 8 {
		t.Errorf("Duration = %d", m.Duration())
	}
}

// TestPendingHoldsOnlyWhatTheBoundaryWillRead pins the ingest filter: a
// relay the next boundary would skip is never buffered. A live instance
// that already extracted v drops v's echoes on arrival, a second value is
// still buffered (it is what turns the decision into ⊥), the buffer's
// array survives the boundary that drains it, and once the instance has
// decided — after which processPending never runs again — a flood of
// perfectly valid relays leaves nothing behind, however long the session
// stays open.
func TestPendingHoldsOnlyWhatTheBoundaryWillRead(t *testing.T) {
	crypto, params := setup(t, 5) // t = 2: the decision comes at the round-4 boundary
	m := NewMachine(Config{Params: params, Crypto: crypto, ID: 1, Sender: 0, Tag: "test", RoundDur: 2})
	relay := func(v string, signers ...types.ProcessID) proto.Incoming {
		chain, err := NewChain(crypto.Signer(signers[0]), "test", types.Value(v))
		for _, id := range signers[1:] {
			if err == nil {
				chain, err = chain.Extend(crypto.Signer(id), "test", 0, types.Value(v))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return proto.Incoming{From: signers[len(signers)-1], Payload: Relay{Sender: 0, V: types.Value(v), Chain: chain}}
	}
	flood := func(in proto.Incoming, k int) []proto.Incoming {
		inbox := make([]proto.Incoming, k)
		for i := range inbox {
			inbox[i] = in
		}
		return inbox
	}

	// Rounds of two ticks: boundaries at ticks 2 and 4, the decision at 6.
	m.Begin(0, nil)
	m.Tick(1, []proto.Incoming{relay("a", 0)}, nil)
	outs := m.Tick(2, nil, nil) // extract a, relay it
	if len(outs) != params.N || len(m.extracted) != 1 {
		t.Fatalf("tick 2: %d sends, %d extracted, want a relayed broadcast of the one value", len(outs), len(m.extracted))
	}
	if len(m.pending) != 0 || cap(m.pending) == 0 {
		t.Fatalf("after the boundary: len(pending)=%d cap=%d, want drained with its array kept", len(m.pending), cap(m.pending))
	}
	array := &m.pending[:1][0]

	// The other processes' echoes of a, and among them one relay of a
	// second value b: only b waits for the boundary.
	inbox := append(flood(relay("a", 0, 2), 3), relay("b", 0, 3))
	inbox = append(inbox, flood(relay("a", 0, 4), 3)...)
	m.Tick(3, inbox, nil)
	if len(m.pending) != 1 || &m.pending[0] != array {
		t.Fatalf("tick 3: %d relays buffered (array reused: %t), want b alone in the kept array",
			len(m.pending), len(m.pending) > 0 && &m.pending[0] == array)
	}
	m.Tick(4, nil, nil)
	if len(m.extracted) != 2 {
		t.Fatalf("tick 4: %d values extracted, want a and b", len(m.extracted))
	}

	// With two values held nothing more can matter; then the decision.
	m.Tick(5, flood(relay("c", 0, 2), 100), nil)
	if len(m.pending) != 0 {
		t.Errorf("holding two values: %d relays buffered, want 0", len(m.pending))
	}
	m.Tick(6, nil, nil)
	if v, ok := m.Output(); !ok || !v.IsBottom() {
		t.Fatalf("decision %v %v, want ⊥ for an equivocating sender", v, ok)
	}
	for now := types.Tick(7); now < 11; now++ {
		m.Tick(now, flood(relay("d", 0, 2, 3), 1000), nil)
	}
	if len(m.pending) != 0 || cap(m.pending) != 0 {
		t.Errorf("decided instance buffers relays: len(pending)=%d cap=%d, want 0/0", len(m.pending), cap(m.pending))
	}
}
