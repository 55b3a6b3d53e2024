package wba

import (
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/core/valid"
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
	ring, err := sig.NewHMACRing(n, []byte("wba-test"))
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
			m := NewMachine(Config{
				Params:    params,
				Crypto:    crypto,
				ID:        id,
				Input:     input(id),
				Predicate: valid.NonBottom(),
				Tag:       "t",
			})
			machines[id] = m
			return m
		},
		Adversary: adv,
		MaxTicks:  types.Tick(40*n + 400),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range machines {
		if m.Failed() != nil {
			t.Fatalf("machine %v failed: %v", id, m.Failed())
		}
	}
	return res, machines
}

func constInput(v types.Value) func(types.ProcessID) types.Value {
	return func(types.ProcessID) types.Value { return v }
}

func TestFailureFreeUnanimous(t *testing.T) {
	for _, n := range []int{3, 5, 9, 21} {
		res, machines := run(t, n, nil, constInput(types.Value("v")))
		if res.TimedOut {
			t.Fatalf("n=%d timed out", n)
		}
		if !res.AllDecided() {
			t.Fatalf("n=%d: not all decided", n)
		}
		v, ok := res.Agreement()
		if !ok || !v.Equal(types.Value("v")) {
			t.Errorf("n=%d: decided %v (%v)", n, v, ok)
		}
		for id, m := range machines {
			if m.RanFallback() {
				t.Errorf("n=%d: %v ran fallback in failure-free run (Lemma 6)", n, id)
			}
			if m.DecidedAtPhase() != 1 {
				t.Errorf("n=%d: %v decided at phase %d, want 1", n, id, m.DecidedAtPhase())
			}
		}
	}
}

func TestFailureFreeLinearWords(t *testing.T) {
	// With f=0 only phase 1 is non-silent: a constant number of
	// leader-to-all and all-to-leader rounds, so words ≈ c·n.
	for _, n := range []int{11, 41, 101} {
		res, _ := run(t, n, nil, constInput(types.Value("v")))
		words := res.Report.Honest.Words
		if max := int64(12 * n); words > max {
			t.Errorf("n=%d: %d words exceed linear bound %d", n, words, max)
		}
	}
}

func TestDistinctValidInputsAgree(t *testing.T) {
	res, _ := run(t, 7, nil, func(id types.ProcessID) types.Value {
		return types.Value{byte('a' + id)}
	})
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("disagreement")
	}
	// Phase 1's leader is p1; with no failures its proposal wins.
	if !v.Equal(types.Value("b")) {
		t.Errorf("decided %v, want phase-1 leader's input b", v)
	}
}

func TestSmallCrashCountNoFallback(t *testing.T) {
	// n=9, t=4: Lemma 6 threshold is (n-t-1)/2 = 2, so f=1 must not
	// trigger the fallback even when the crashed process leads phase 1.
	res, machines := run(t, 9, adversary.NewCrash(1), constInput(types.Value("v")))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Errorf("decided %v (%v)", v, ok)
	}
	for id, m := range machines {
		if m.RanFallback() {
			t.Errorf("%v ran fallback with f=1 < threshold", id)
		}
	}
}

func TestCrashedLeaderSkipsToNextPhase(t *testing.T) {
	// Crash phase-1's leader: phase 1 is silent (or partial), phase 2's
	// leader p2 decides everyone.
	res, machines := run(t, 9, adversary.NewCrash(1), func(id types.ProcessID) types.Value {
		return types.Value{byte('a' + id)}
	})
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("disagreement")
	}
	if !v.Equal(types.Value("c")) {
		t.Errorf("decided %v, want phase-2 leader's input c", v)
	}
	for _, m := range machines {
		if got := m.DecidedAtPhase(); got != 2 {
			t.Errorf("decided at phase %d, want 2", got)
		}
	}
}

func TestManyCrashesTriggerFallback(t *testing.T) {
	// n=9, t=4, quorum=7: crashing 3 leaves 6 < 7 alive, so no commit
	// certificate can form; all correct processes stay undecided, send
	// help requests, form the fallback certificate, and run A_fallback.
	res, machines := run(t, 9, adversary.NewCrash(0, 1, 2), constInput(types.Value("v")))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Errorf("decided %v (%v), strong unanimity through fallback", v, ok)
	}
	ran := 0
	for _, m := range machines {
		if m.RanFallback() {
			ran++
		}
	}
	if ran != len(res.Honest) {
		t.Errorf("%d/%d honest ran the fallback", ran, len(res.Honest))
	}
}

func TestMaxCrashes(t *testing.T) {
	// f = t = 4 at n = 9.
	res, _ := run(t, 9, adversary.NewCrash(0, 1, 2, 3), constInput(types.Value("v")))
	if !res.AllDecided() {
		t.Fatal("not all decided with f = t crashes")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Errorf("decided %v (%v)", v, ok)
	}
}

func TestMidRunCrashes(t *testing.T) {
	// Crash leaders mid-phase: p1 after its propose went out, p2 during
	// its own phase.
	res, _ := run(t, 9, adversary.NewCrashAt(map[types.ProcessID]types.Tick{
		1: 1, // phase 1 leader dies right after proposing
		2: 7, // phase 2 leader dies mid-phase (phase 2 spans ticks 5..9)
	}), constInput(types.Value("v")))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Errorf("decided %v (%v)", v, ok)
	}
}

// byzFactory runs the honest protocol with a different input on corrupted
// processes.
func byzFactory(crypto *proto.Crypto, params types.Params, input types.Value) func(types.ProcessID) proto.Machine {
	return func(id types.ProcessID) proto.Machine {
		return NewMachine(Config{
			Params:    params,
			Crypto:    crypto,
			ID:        id,
			Input:     input,
			Predicate: valid.NonBottom(),
			Tag:       "t",
		})
	}
}

func TestByzantineMinorityCannotOverrideUnanimity(t *testing.T) {
	crypto, params := setup(t, 9)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return NewMachine(Config{
				Params:    params,
				Crypto:    crypto,
				ID:        id,
				Input:     types.Value("good"),
				Predicate: valid.NonBottom(),
				Tag:       "t",
			})
		},
		Adversary: adversary.NewMimic(byzFactory(crypto, params, types.Value("evil")), 1, 3),
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
		t.Fatal("disagreement")
	}
	// Byzantine p1 leads phase 1 and proposes "evil" — a valid value, so
	// deciding it is allowed by unique validity. What is NOT allowed is
	// disagreement or an invalid value.
	if !v.Equal(types.Value("good")) && !v.Equal(types.Value("evil")) && !v.IsBottom() {
		t.Errorf("decided out-of-run value %v", v)
	}
}

func TestReplayAttackSafety(t *testing.T) {
	crypto, params := setup(t, 9)
	for seed := int64(0); seed < 5; seed++ {
		res, err := sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				return NewMachine(Config{
					Params:    params,
					Crypto:    crypto,
					ID:        id,
					Input:     types.Value{byte('a' + id)},
					Predicate: valid.NonBottom(),
					Tag:       "t",
				})
			},
			Adversary: adversary.NewReplay(seed, 200, 0, 4),
			MaxTicks:  2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("seed %d: not all decided", seed)
		}
		if _, ok := res.Agreement(); !ok {
			t.Fatalf("seed %d: replay attack broke agreement", seed)
		}
	}
}

func TestAdaptivityWordsGrowWithF(t *testing.T) {
	// More crashed leaders → more non-silent phases → more words; but for
	// f below the fallback threshold the growth must stay ~linear in n
	// per extra failure.
	n := 21 // t=10, threshold (n-t-1)/2 = 5
	var prev int64
	for f := 0; f <= 4; f++ {
		res, machines := run(t, n, adversary.NewCrash(adversary.FirstProcesses(f)...), constInput(types.Value("v")))
		if !res.AllDecided() {
			t.Fatalf("f=%d: not all decided", f)
		}
		for _, m := range machines {
			if m.RanFallback() {
				t.Fatalf("f=%d below threshold ran fallback", f)
			}
		}
		words := res.Report.Honest.Words
		if words > int64(10*n*(f+2)) {
			t.Errorf("f=%d: words=%d exceed O(n(f+1)) envelope %d", f, words, 10*n*(f+2))
		}
		if words < prev {
			// Monotonicity is not strictly guaranteed, but a decrease
			// of more than one phase's worth signals a bug.
			if prev-words > int64(4*n) {
				t.Errorf("f=%d: words dropped from %d to %d", f, prev, words)
			}
		}
		prev = words
	}
}

func TestWeakBAQuorumThreshold(t *testing.T) {
	// Quorum() must exceed both n/2 and t to make vote splitting
	// impossible; sanity-check the arithmetic the protocol relies on.
	for _, n := range []int{3, 9, 21, 101} {
		p, _ := types.NewParams(n)
		q := p.Quorum()
		if 2*q-n < p.T+1 {
			t.Errorf("n=%d: quorum %d lacks correct-intersection", n, q)
		}
	}
}

func TestBottomDecisionOnlyWithMultipleValidValues(t *testing.T) {
	// Unique validity: when all correct processes propose the same value
	// and the adversary only crashes (cannot craft another valid value
	// under the non-bottom predicate it can always craft one... so use a
	// crash run): the decision must be the common input, not ⊥.
	res, _ := run(t, 9, adversary.NewCrash(0, 1, 2), constInput(types.Value("only")))
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("disagreement")
	}
	if v.IsBottom() {
		t.Error("decided ⊥ although a single valid value existed")
	}
}

func TestPhaseCountOverride(t *testing.T) {
	crypto, params := setup(t, 5)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return NewMachine(Config{
				Params:    params,
				Crypto:    crypto,
				ID:        id,
				Input:     types.Value("v"),
				Predicate: valid.NonBottom(),
				Tag:       "t",
				Phases:    params.N, // the prose version: n phases
			})
		},
		MaxTicks: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Errorf("decided %v (%v)", v, ok)
	}
}

func TestMachineAccounting(t *testing.T) {
	crypto, params := setup(t, 5)
	m := NewMachine(Config{
		Params: params, Crypto: crypto, ID: 0,
		Input: types.Value("v"), Predicate: valid.NonBottom(), Tag: "t",
	})
	if m.Rounds() != (params.T+1)*5+3 {
		t.Errorf("Rounds = %d", m.Rounds())
	}
	if MaxTicks(params, 0) <= types.Tick(m.Rounds()) {
		t.Errorf("MaxTicks = %d too small", MaxTicks(params, 0))
	}
}
