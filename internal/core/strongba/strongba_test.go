package strongba

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
	ring, err := sig.NewHMACRing(n, []byte("sba-test"))
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")), params
}

func run(t *testing.T, n int, adv sim.Adversary, input func(types.ProcessID) types.Value) (*sim.Result, map[types.ProcessID]*Machine) {
	t.Helper()
	crypto, params := setup(t, n)
	machines := make(map[types.ProcessID]*Machine)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m, err := NewMachine(Config{
				Params: params,
				Crypto: crypto,
				ID:     id,
				Input:  input(id),
				Tag:    "t",
			})
			if err != nil {
				t.Fatal(err)
			}
			machines[id] = m
			return m
		},
		Adversary: adv,
		MaxTicks:  types.Tick(20*n + 200),
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

func constInput(v types.Value) func(types.ProcessID) types.Value {
	return func(types.ProcessID) types.Value { return v }
}

func TestFailureFreeUnanimous(t *testing.T) {
	for _, n := range []int{3, 9, 21} {
		res, machines := run(t, n, nil, constInput(types.One))
		if res.TimedOut {
			t.Fatalf("n=%d: timed out", n)
		}
		if !res.AllDecided() {
			t.Fatalf("n=%d: not all decided", n)
		}
		v, ok := res.Agreement()
		if !ok || !v.Equal(types.One) {
			t.Errorf("n=%d: decided %v (%v)", n, v, ok)
		}
		for id, m := range machines {
			if m.RanFallback() {
				t.Errorf("n=%d: %v ran fallback at f=0 (Lemma 8)", n, id)
			}
		}
	}
}

func TestFailureFreeLinearWords(t *testing.T) {
	// Lemma 8 + Section 7.1: f=0 costs 4 leader rounds, O(n) words.
	for _, n := range []int{11, 41, 101, 201} {
		res, _ := run(t, n, nil, constInput(types.Zero))
		words := res.Report.Honest.Words
		if max := int64(6 * n); words > max {
			t.Errorf("n=%d: %d words exceed linear bound %d", n, words, max)
		}
	}
}

func TestSplitBinaryInputsFailureFree(t *testing.T) {
	// With n = 2t+1 correct processes and binary inputs, some value has
	// t+1 inputs; the leader certifies it and everyone decides it.
	res, _ := run(t, 9, nil, func(id types.ProcessID) types.Value {
		return types.BinaryValue(id%2 == 0) // five 1s, four 0s
	})
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("disagreement")
	}
	if !v.IsBinary() {
		t.Errorf("non-binary decision %v", v)
	}
}

func TestStrongUnanimityWithCrashedFollower(t *testing.T) {
	// One crash (not the leader): QC_decide needs n signatures, so the
	// fast path dies and the fallback must deliver the unanimous value.
	res, machines := run(t, 9, adversary.NewCrash(5), constInput(types.One))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.One) {
		t.Errorf("decided %v (%v), want 1", v, ok)
	}
	for _, m := range machines {
		if !m.RanFallback() {
			t.Error("fast path should be dead with one crash")
		}
	}
}

func TestStrongUnanimityWithCrashedLeader(t *testing.T) {
	res, _ := run(t, 9, adversary.NewCrash(0), constInput(types.Zero))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Zero) {
		t.Errorf("decided %v (%v), want 0", v, ok)
	}
}

func TestMaxCrashes(t *testing.T) {
	res, _ := run(t, 9, adversary.NewCrash(0, 1, 2, 3), constInput(types.One))
	if !res.AllDecided() {
		t.Fatal("not all decided with f=t")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.One) {
		t.Errorf("decided %v (%v)", v, ok)
	}
}

func TestSplitInputsWithCrashes(t *testing.T) {
	// Split inputs + crashes: only agreement and binary-ness are required.
	res, _ := run(t, 9, adversary.NewCrash(1, 6), func(id types.ProcessID) types.Value {
		return types.BinaryValue(id < 4)
	})
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("disagreement")
	}
	if !v.IsBinary() && !v.IsBottom() {
		t.Errorf("decided %v", v)
	}
}

// partialLeader is a Byzantine leader that completes rounds 2 and 4
// honestly but sends QC_decide to only one process: the safety window must
// propagate that decision to everyone.
type partialLeader struct {
	adversary.Core
	inbox []proto.Incoming
}

func (a *partialLeader) Corruptions() []sim.Corruption {
	return []sim.Corruption{{ID: 0}}
}

func (a *partialLeader) Observe(_ types.Tick, _ types.ProcessID, inbox []proto.Incoming) {
	a.inbox = append(a.inbox, inbox...)
}

// Quiescent implements sim.Adversary: its last action is at tick 3.
func (a *partialLeader) Quiescent(now types.Tick) bool { return now >= 3 }

func (a *partialLeader) Act(now types.Tick, _ []sim.Message) []sim.Message {
	params := a.Env.Params
	small := a.Env.Crypto.Threshold(params.SmallQuorum())
	full := a.Env.Crypto.Threshold(params.N)
	switch now {
	case 1:
		// Build QC_propose from observed input shares (plus our own).
		shares := a.collect(func(p proto.Payload) (types.Value, sig.Signature, bool) {
			if is, ok := p.(InputShare); ok {
				return is.V, is.Share, true
			}
			return nil, nil, false
		}, inputBase("t", types.One))
		own, err := a.Env.Crypto.Signer(0).Sign(inputBase("t", types.One))
		if err != nil {
			return nil
		}
		shares = append(shares, threshold.Share{Signer: 0, Sig: own})
		cert, err := small.Combine(inputBase("t", types.One), shares)
		if err != nil {
			return nil
		}
		var msgs []sim.Message
		for i := 0; i < params.N; i++ {
			msgs = append(msgs, sim.Message{From: 0, To: types.ProcessID(i), Payload: Propose{V: types.One, Cert: cert}})
		}
		return msgs
	case 3:
		shares := a.collect(func(p proto.Payload) (types.Value, sig.Signature, bool) {
			if ds, ok := p.(DecideShare); ok {
				return ds.V, ds.Share, true
			}
			return nil, nil, false
		}, decideBase("t", types.One))
		own, err := a.Env.Crypto.Signer(0).Sign(decideBase("t", types.One))
		if err != nil {
			return nil
		}
		shares = append(shares, threshold.Share{Signer: 0, Sig: own})
		cert, err := full.Combine(decideBase("t", types.One), shares)
		if err != nil {
			return nil // could not assemble n shares; fall back silently
		}
		// Deal the decision certificate to p1 only.
		return []sim.Message{{From: 0, To: 1, Payload: DecideMsg{V: types.One, Cert: cert}}}
	}
	return nil
}

// collect extracts matching shares from the observed inbox.
func (a *partialLeader) collect(extract func(proto.Payload) (types.Value, sig.Signature, bool), base []byte) []threshold.Share {
	var shares []threshold.Share
	seen := map[types.ProcessID]bool{}
	for _, in := range a.inbox {
		v, s, ok := extract(in.Payload)
		if !ok || seen[in.From] || !v.Equal(types.One) {
			continue
		}
		seen[in.From] = true
		shares = append(shares, threshold.Share{Signer: in.From, Sig: s})
	}
	_ = base
	return shares
}

func TestPartialDecisionPropagatesThroughSafetyWindow(t *testing.T) {
	res, _ := run(t, 5, &partialLeader{}, constInput(types.One))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("agreement violated: the early decision did not propagate")
	}
	if !v.Equal(types.One) {
		t.Errorf("decided %v, want 1", v)
	}
}

func TestNonBinaryInputRejected(t *testing.T) {
	crypto, params := setup(t, 3)
	_, err := NewMachine(Config{Params: params, Crypto: crypto, ID: 0, Input: types.Value("x"), Tag: "t"})
	if !errors.Is(err, ErrNotBinary) {
		t.Errorf("err = %v", err)
	}
	_, err = NewMachine(Config{Params: params, Crypto: crypto, ID: 0, Input: types.Bottom, Tag: "t"})
	if !errors.Is(err, ErrNotBinary) {
		t.Errorf("bottom input: err = %v", err)
	}
}

func TestBadLeaderRejected(t *testing.T) {
	crypto, params := setup(t, 3)
	_, err := NewMachine(Config{Params: params, Crypto: crypto, ID: 0, Input: types.One, Leader: 7, Tag: "t"})
	if err == nil {
		t.Error("out-of-range leader accepted")
	}
}

func TestReplayAttackSafety(t *testing.T) {
	crypto, params := setup(t, 9)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m, err := NewMachine(Config{
				Params: params, Crypto: crypto, ID: id,
				Input: types.BinaryValue(id%2 == 0), Tag: "t",
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		Adversary: adversary.NewReplay(7, 150, 2, 8),
		MaxTicks:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	if _, ok := res.Agreement(); !ok {
		t.Fatal("replay attack broke agreement")
	}
}
