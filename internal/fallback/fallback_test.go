package fallback

import (
	"fmt"
	"testing"

	"adaptiveba/internal/baseline/dolevstrong"
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
	ring, err := sig.NewHMACRing(n, []byte("fb-test"))
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")), params
}

func factory(crypto *proto.Crypto, params types.Params, dur int, input func(types.ProcessID) types.Value) func(types.ProcessID) proto.Machine {
	return func(id types.ProcessID) proto.Machine {
		return NewMachine(Config{
			Params:   params,
			Crypto:   crypto,
			ID:       id,
			Input:    input(id),
			Tag:      "fb",
			RoundDur: dur,
		})
	}
}

func TestStrongUnanimityFailureFree(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		crypto, params := setup(t, n)
		res, err := sim.Run(sim.Config{
			Params:   params,
			Crypto:   crypto,
			Factory:  factory(crypto, params, 1, func(types.ProcessID) types.Value { return types.Value("v") }),
			MaxTicks: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("n=%d: not all decided", n)
		}
		v, ok := res.Agreement()
		if !ok || !v.Equal(types.Value("v")) {
			t.Errorf("n=%d: decided %v (%v), want v", n, v, ok)
		}
	}
}

func TestSplitInputsStillAgree(t *testing.T) {
	crypto, params := setup(t, 7)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: factory(crypto, params, 1, func(id types.ProcessID) types.Value {
			if id%2 == 0 {
				return types.Value("even")
			}
			return types.Value("odd")
		}),
		MaxTicks: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("agreement violated on split inputs")
	}
	// 4 even vs 3 odd: plurality is "even".
	if !v.Equal(types.Value("even")) {
		t.Errorf("plurality = %v", v)
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

func TestStrongUnanimityWithCrashes(t *testing.T) {
	crypto, params := setup(t, 7) // t = 3
	res, err := sim.Run(sim.Config{
		Params:    params,
		Crypto:    crypto,
		Factory:   factory(crypto, params, 1, func(types.ProcessID) types.Value { return types.Value("u") }),
		Adversary: &crashAdv{ids: []types.ProcessID{0, 3, 6}},
		MaxTicks:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("u")) {
		t.Errorf("decided %v (%v), want u despite t crashes", v, ok)
	}
}

// byzInputAdv runs the protocol honestly for its corrupted processes but
// with a conflicting input value: strong unanimity must still force the
// correct processes' common value.
type byzInputAdv struct {
	crashAdv
	machines map[types.ProcessID]proto.Machine
	inboxes  map[types.ProcessID][]proto.Incoming
	begun    bool
}

func newByzInputAdv(ids []types.ProcessID) *byzInputAdv {
	return &byzInputAdv{
		crashAdv: crashAdv{ids: ids},
		machines: make(map[types.ProcessID]proto.Machine),
		inboxes:  make(map[types.ProcessID][]proto.Incoming),
	}
}

func (a *byzInputAdv) Observe(now types.Tick, to types.ProcessID, inbox []proto.Incoming) {
	a.inboxes[to] = append(a.inboxes[to], inbox...)
}

func (a *byzInputAdv) Act(now types.Tick, _ []sim.Message) []sim.Message {
	if !a.begun {
		a.begun = true
		for _, id := range a.ids {
			a.machines[id] = NewMachine(Config{
				Params:   a.env.Params,
				Crypto:   a.env.Crypto,
				ID:       id,
				Input:    types.Value("evil"),
				Tag:      "fb",
				RoundDur: 1,
			})
		}
	}
	var msgs []sim.Message
	for _, id := range a.ids {
		m := a.machines[id]
		var outs []proto.Outgoing
		if now == 0 {
			outs = m.Begin(0, nil)
		} else {
			outs = m.Tick(now, a.inboxes[id], nil)
			a.inboxes[id] = nil
		}
		for _, o := range outs {
			msgs = append(msgs, sim.Message{From: id, To: o.To, Session: o.Session, Payload: o.Payload})
		}
	}
	return msgs
}

func TestStrongUnanimityAgainstByzantineMinority(t *testing.T) {
	crypto, params := setup(t, 7) // t = 3: 4 correct with "good", 3 byzantine with "evil"
	res, err := sim.Run(sim.Config{
		Params:    params,
		Crypto:    crypto,
		Factory:   factory(crypto, params, 1, func(types.ProcessID) types.Value { return types.Value("good") }),
		Adversary: newByzInputAdv([]types.ProcessID{1, 2, 5}),
		MaxTicks:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("agreement violated")
	}
	if !v.Equal(types.Value("good")) {
		t.Errorf("decided %v, want good (strong unanimity)", v)
	}
}

// delayedStart defers Begin by a per-process offset (at most 1 tick = δ),
// exercising Lemma 18: with 2δ rounds, skewed starts must not break the
// protocol.
type delayedStart struct {
	inner proto.Machine
	delay types.Tick
	sub   *proto.Sub
}

func newDelayedStart(inner proto.Machine, delay types.Tick) *delayedStart {
	return &delayedStart{inner: inner, delay: delay, sub: proto.NewSub("d", inner)}
}

func (d *delayedStart) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	if d.delay == 0 {
		return d.sub.Begin(now, outs)
	}
	return outs
}

func (d *delayedStart) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	mine, _ := d.sub.Route(inbox)
	if !d.sub.Started() && now >= d.delay {
		outs = d.sub.Begin(now, outs)
	}
	return d.sub.Tick(now, mine, outs)
}

func (d *delayedStart) Output() (types.Value, bool) { return d.sub.Output() }
func (d *delayedStart) Done() bool                  { return d.sub.Done() }

func TestSkewedStartsWithDoubleRounds(t *testing.T) {
	crypto, params := setup(t, 5)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			inner := NewMachine(Config{
				Params:   params,
				Crypto:   crypto,
				ID:       id,
				Input:    types.Value("s"),
				Tag:      "fb",
				RoundDur: 2, // δ' = 2δ as the paper prescribes
			})
			return newDelayedStart(inner, types.Tick(int(id)%2))
		},
		MaxTicks: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided under skewed starts")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("s")) {
		t.Errorf("decided %v (%v)", v, ok)
	}
}

// equivSkewAdv corrupts process 0 and equivocates in the fallback's i0
// broadcast instance: it signs value "a" toward process 1 and value "b"
// toward process 2 at tick 0 and stays silent otherwise. Combined with
// skewed honest starts this is the Lemma 18 stress case: an honest
// relay crossing a round boundary arrives one LOCAL round later at the
// other process, where the chain is one signature short of the
// acceptance threshold min(b-1, t+1) and is rejected.
type equivSkewAdv struct {
	crashAdv
	sent bool
}

func (a *equivSkewAdv) Act(now types.Tick, _ []sim.Message) []sim.Message {
	if a.sent {
		return nil
	}
	a.sent = true
	signer := a.env.Crypto.Signer(0)
	var msgs []sim.Message
	for _, half := range []struct {
		to types.ProcessID
		v  types.Value
	}{{1, types.Value("a")}, {2, types.Value("b")}} {
		chain, err := dolevstrong.NewChain(signer, "fb/i0", half.v)
		if err != nil {
			panic(err)
		}
		msgs = append(msgs, sim.Message{
			From: 0, To: half.to, Session: "i0",
			Payload: dolevstrong.Relay{Sender: 0, V: half.v, Chain: chain},
		})
	}
	return msgs
}

// skewedMachine defers an inner machine's Begin by delay ticks,
// buffering anything that arrives before the start (real processes do
// not drop pre-join traffic; TCP delivers it once they are up).
type skewedMachine struct {
	inner   proto.Machine
	delay   types.Tick
	started bool
	buf     []proto.Incoming
}

func (s *skewedMachine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	if s.delay == 0 {
		s.started = true
		return s.inner.Begin(now, outs)
	}
	return outs
}

func (s *skewedMachine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	if !s.started {
		if now < s.delay {
			s.buf = append(s.buf, inbox...)
			return outs
		}
		s.started = true
		outs = s.inner.Begin(now, outs)
		inbox = append(s.buf, inbox...)
		s.buf = nil
	}
	return s.inner.Tick(now, inbox, outs)
}

func (s *skewedMachine) Output() (types.Value, bool) { return s.inner.Output() }
func (s *skewedMachine) Done() bool                  { return s.started && s.inner.Done() }

// TestSkewTableLemma18 pins exactly where the fallback's synchrony
// margin holds and where it breaks, per Lemma 18 of the paper: correct
// processes may enter A_fallback up to δ apart, so the paper invokes it
// with doubled rounds (δ' = 2δ) to keep every pair of correct processes
// overlapping in every round.
//
// The scenario that separates the regimes (n=3, t=1): corrupted sender
// 0 equivocates "a"/"b" toward the two honest processes, which start
// skew ticks apart with split inputs "x"/"y". When every honest relay
// lands within the other's same local round, both extract both forged
// values, resolve instance i0 to ⊥, and agree. When the skew eats the
// overlap, the late process's relay misses the early process's final
// acceptance boundary: one resolves i0 to a forged value, the other to
// ⊥, their plurality vectors split, and agreement breaks.
//
// The table (1 tick = δ; RoundDur 2 = the paper's δ'):
//
//	δ'=2δ, skew δ    — Lemma 18's stated margin: MUST agree.
//	δ'=2δ, skew 2δ   — one tick past the margin: agreement breaks.
//	δ'=2δ, skew 2δ+1 — further out: still broken.
//	δ'=δ,  skew 0    — perfectly aligned entries need no margin.
//	δ'=δ,  skew δ    — why the paper doubles: a bare-δ' fallback is
//	                   unsafe under the very skew its callers produce.
//
// Every row is swept over inbox-shuffle seeds: the verdicts are a
// property of the timing geometry, not of delivery order within a tick.
func TestSkewTableLemma18(t *testing.T) {
	cases := []struct {
		name      string
		roundDur  int
		skew      types.Tick
		wantAgree bool
	}{
		{"doubled-rounds/skew-delta", 2, 1, true},
		{"doubled-rounds/skew-2delta", 2, 2, false},
		{"doubled-rounds/skew-2delta+1", 2, 3, false},
		{"bare-rounds/skew-0", 1, 0, true},
		{"bare-rounds/skew-delta", 1, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, shuffle := range []int64{0, 7, 123} {
				crypto, params := setup(t, 3) // t = 1
				res, err := sim.Run(sim.Config{
					Params: params,
					Crypto: crypto,
					Factory: func(id types.ProcessID) proto.Machine {
						input := types.Value("x")
						if id == 2 {
							input = types.Value("y")
						}
						inner := NewMachine(Config{
							Params: params, Crypto: crypto, ID: id,
							Input: input, Tag: "fb", RoundDur: tc.roundDur,
						})
						var delay types.Tick
						if id == 2 {
							delay = tc.skew
						}
						return &skewedMachine{inner: inner, delay: delay}
					},
					Adversary:   &equivSkewAdv{crashAdv: crashAdv{ids: []types.ProcessID{0}}},
					MaxTicks:    200,
					ShuffleSeed: shuffle,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.AllDecided() {
					t.Fatalf("shuffle=%d: not all honest processes decided", shuffle)
				}
				_, agree := res.Agreement()
				if agree != tc.wantAgree {
					t.Errorf("shuffle=%d: agreement=%v, want %v (decisions p1=%q p2=%q)",
						shuffle, agree, tc.wantAgree,
						res.Decisions[1], res.Decisions[2])
				}
			}
		})
	}
}

func TestAllBottomWhenEverythingCrashes(t *testing.T) {
	// Corrupt t processes; the n-t correct ones still broadcast their
	// inputs, so the decision is their common value — but if inputs are
	// all distinct, plurality tie-breaks deterministically.
	crypto, params := setup(t, 5)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: factory(crypto, params, 1, func(id types.ProcessID) types.Value {
			return types.Value{byte('a' + id)}
		}),
		Adversary: &crashAdv{ids: []types.ProcessID{0, 1}},
		MaxTicks:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("agreement violated")
	}
	// Distinct inputs c, d, e from p2, p3, p4: tie broken to smallest.
	if !v.Equal(types.Value("c")) {
		t.Errorf("tie-break decided %v, want c", v)
	}
}

func TestDurationMatchesDecisionTick(t *testing.T) {
	crypto, params := setup(t, 5) // t=2
	m := NewMachine(Config{Params: params, Crypto: crypto, ID: 0, Input: types.Value("v"), Tag: "x", RoundDur: 2})
	if m.Duration() != 6 {
		t.Errorf("Duration = %d, want (t+1)*dur = 6", m.Duration())
	}
	inner := dolevstrong.NewMachine(dolevstrong.Config{Params: params, Crypto: crypto, ID: 0, Sender: 0, Tag: "y", RoundDur: 2})
	if inner.Duration() != m.Duration() {
		t.Errorf("fallback duration %d != instance duration %d", m.Duration(), inner.Duration())
	}
}

// equivAdv corrupts ids; each equivocates in the broadcast instance it
// is the designated sender of — at tick 0 it signs "a" toward the even
// processes and "b" toward the odd ones — and stays silent afterwards, so
// every honest process relays, extracts and holds two values there.
type equivAdv struct {
	crashAdv
	sent bool
}

func (a *equivAdv) Act(types.Tick, []sim.Message) []sim.Message {
	if a.sent {
		return nil
	}
	a.sent = true
	var msgs []sim.Message
	for _, id := range a.ids {
		name := instanceName(id)
		for to := 0; to < a.env.Params.N; to++ {
			v := types.Value([]string{"a", "b"}[to%2])
			chain, err := dolevstrong.NewChain(a.env.Crypto.Signer(id), "fb/"+name, v)
			if err != nil {
				panic(err)
			}
			msgs = append(msgs, sim.Message{
				From: id, To: types.ProcessID(to), Session: name,
				Payload: dolevstrong.Relay{Sender: id, V: v, Chain: chain},
			})
		}
	}
	return msgs
}

// TestIngestFilterLeavesRunsUnchanged: dropping at ingest what the
// boundary would have skipped changes nothing a run can show. Decision,
// honest words and honest messages of A_fallback (δ' = 2δ, unanimous
// input "v") over n ∈ {4, 9} × f ∈ {0, 1, t}, with the faulty processes
// crashed or equivocating in their own instance, are pinned to what the
// buffer-everything version produced (recorded at the parent of the
// commit that introduced the filter).
func TestIngestFilterLeavesRunsUnchanged(t *testing.T) {
	type outcome struct {
		decision        string
		words, messages int64
	}
	want := map[string]outcome{
		"n4/f0/crash":      {"v", 132, 48},
		"n4/f0/equivocate": {"v", 132, 48},
		"n4/f1/crash":      {"v", 72, 27},
		"n4/f1/equivocate": {"v", 99, 36},
		"n9/f0/crash":      {"v", 1872, 648},
		"n9/f0/equivocate": {"v", 1872, 648},
		"n9/f1/crash":      {"v", 1472, 512},
		"n9/f1/equivocate": {"v", 1920, 640},
		"n9/f4/crash":      {"v", 560, 200},
		"n9/f4/equivocate": {"v", 1040, 360},
	}
	for _, n := range []int{4, 9} {
		crypto, params := setup(t, n)
		fs := []int{0, 1, params.T}
		if params.T == 1 {
			fs = fs[:2] // n=4: f=1 is f=t
		}
		for _, f := range fs {
			ids := make([]types.ProcessID, f)
			for i := range ids {
				ids[i] = types.ProcessID(2*i + 1)
			}
			for name, adv := range map[string]sim.Adversary{
				"crash": &crashAdv{ids: ids}, "equivocate": &equivAdv{crashAdv: crashAdv{ids: ids}},
			} {
				cell := fmt.Sprintf("n%d/f%d/%s", n, f, name)
				res, err := sim.Run(sim.Config{
					Params: params, Crypto: crypto, Adversary: adv, MaxTicks: 200,
					Factory: factory(crypto, params, 2, func(types.ProcessID) types.Value { return types.Value("v") }),
				})
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				v, agree := res.Agreement()
				if !agree || !res.AllDecided() {
					t.Fatalf("%s: agreement=%t allDecided=%t", cell, agree, res.AllDecided())
				}
				got := outcome{string(v), res.Report.Honest.Words, res.Report.Honest.Messages}
				if got != want[cell] {
					t.Errorf("%s: decision/words/messages %+v, want %+v", cell, got, want[cell])
				}
			}
		}
	}
}
