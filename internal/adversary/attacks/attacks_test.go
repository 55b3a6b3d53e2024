package attacks

import (
	"fmt"
	"slices"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/baseline/floodset"
	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

func setup(t *testing.T, n int) (*proto.Crypto, types.Params) {
	t.Helper()
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("attacks-test"))
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")), params
}

// corruptSet returns {1} ∪ {n-1, n-2, ...} of size t: the phase-1 leader
// plus fillers.
func corruptSet(params types.Params) []types.ProcessID {
	ids := []types.ProcessID{1}
	for i := params.N - 1; len(ids) < params.T; i-- {
		ids = append(ids, types.ProcessID(i))
	}
	return ids
}

// splitVote is the two-faced phase-1 leader against the given quorum (0:
// the paper's), with t corrupted processes.
func splitVote(params types.Params, quorum int) *WBALeader {
	a := NewWBALeader("q", corruptSet(params)...)
	a.Faces, a.Quorum = []types.Value{types.Value("v1"), types.Value("v2")}, quorum
	return a
}

func runSplitVote(t *testing.T, quorumOverride int) *sim.Result {
	t.Helper()
	params, _ := types.NewParams(9)
	res, _ := runWBA(t, 9, "q", types.Value("honest"), quorumOverride, splitVote(params, quorumOverride), nil)
	return res
}

// TestSplitVoteBreaksNaiveQuorum demonstrates the paper's motivation for
// ⌈(n+t+1)/2⌉: with the naive t+1 quorum the double-commit attack splits
// the correct processes into two decisions.
func TestSplitVoteBreaksNaiveQuorum(t *testing.T) {
	params, _ := types.NewParams(9)
	res := runSplitVote(t, params.SmallQuorum()) // t+1 = 5
	if _, ok := res.Agreement(); ok {
		t.Fatal("expected a safety violation under the t+1 quorum; agreement held")
	}
}

// TestSplitVoteFailsAgainstPaperQuorum verifies the same adversary is
// powerless against the paper's quorum.
func TestSplitVoteFailsAgainstPaperQuorum(t *testing.T) {
	res := runSplitVote(t, 0)
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("agreement violated under the paper's quorum")
	}
	if v.IsBottom() {
		t.Errorf("decided ⊥; expected a real value from a later honest phase")
	}
}

func TestWBAPhaseSpamCostsLinearPerFailure(t *testing.T) {
	crypto, params := setup(t, 21)
	words := make(map[int]int64)
	for _, f := range []int{0, 2, 4} {
		var adv sim.Adversary
		if f > 0 {
			ids := make([]types.ProcessID, f)
			for i := range ids {
				ids[i] = types.ProcessID(i + 1)
			}
			adv = Compile(PhaseSpam(protocols.WBA, ids...), protocols.WBA, "h/wba", 1, 2000)
		}
		res, err := sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				return wba.NewMachine(wba.Config{
					Params: params, Crypto: crypto, ID: id,
					Input: types.Value("v"), Predicate: valid.NonBottom(), Tag: "h/wba",
				})
			},
			Adversary: adv,
			MaxTicks:  2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("f=%d: not all decided", f)
		}
		if v, ok := res.Agreement(); !ok || !v.Equal(types.Value("v")) {
			t.Fatalf("f=%d: agreement %v %v", f, v, ok)
		}
		words[f] = res.Report.Honest.Words
	}
	// Each spammed phase should add roughly n-f honest votes.
	if words[2] <= words[0] || words[4] <= words[2] {
		t.Errorf("spam cost not increasing: %v", words)
	}
	if growth := words[4] - words[0]; growth < int64(2*(params.N-8)) || growth > int64(8*params.N) {
		t.Errorf("4 spam phases grew words by %d, want ~Θ(n) per phase", growth)
	}
}

// helpSpam is the help-spam genome: each of ids signs and broadcasts a
// help request in weak BA's first help round (round A after the last
// phase), even though it could decide.
func helpSpam(ids ...types.ProcessID) Genome {
	var g Genome
	for _, id := range ids {
		g.Corruptions = append(g.Corruptions, Corrupt{Slot: uint8(id), Moves: []Move{{Op: OpHelpSpam}}})
	}
	return g
}

func TestHelpSpamCostsLinearAndNoFallback(t *testing.T) {
	// n=21, t=10: f=3 Byzantine help-requesters force the decided correct
	// processes to answer (O(nf) helps) but cannot reach the t+1
	// certificate threshold alone — the fallback must stay off.
	crypto, params := setup(t, 21)
	machines := make(map[types.ProcessID]*wba.Machine)
	adv := Compile(helpSpam(18, 19, 20), protocols.WBA, "h", 1, 2000)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m := wba.NewMachine(wba.Config{
				Params: params, Crypto: crypto, ID: id,
				Input: types.Value("v"), Predicate: valid.NonBottom(), Tag: "h",
			})
			machines[id] = m
			return m
		},
		Adversary: adv,
		MaxTicks:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Fatalf("agreement %v %v", v, ok)
	}
	for id, m := range machines {
		if m.RanFallback() {
			t.Errorf("%v ran fallback although only f=3 < t+1 help requests existed", id)
		}
	}
	// Every decided correct process answers each of the 3 requesters:
	// roughly 3*(n-3) help messages on top of the base run.
	helps := res.Report.ByLayer["(root)"].Messages
	if helps < int64(3*(params.N-3)) {
		t.Errorf("help answers missing: %d root messages", helps)
	}
	// Exact cost of this run, pinned so a change to how the spam is built
	// cannot move it.
	if got := res.Report.Honest; got.Words != 148 || got.Messages != 148 || res.Ticks != 57 {
		t.Errorf("help spam run: words=%d messages=%d ticks=%d, pinned 148, 148, 57",
			got.Words, got.Messages, res.Ticks)
	}
}

func TestLateCertWithoutHelpRequestsFizzles(t *testing.T) {
	// n=9, t=4, f=2: the 7 correct processes reach the paper's quorum and
	// decide in phase 1, so no correct help request ever exists, and the
	// coalition's own 2 shares cannot reach the t+1 = 5 certificate
	// threshold — the late release must fizzle and the decisions stand.
	adv := NewWBALeader("h", 7, 8)
	adv.Release = 200
	certs := 0
	res, machines := runWBA(t, 9, "h", types.Value("v"), 0, adv, func(_ types.Tick, m sim.Message, honest bool) {
		if _, ok := m.Payload.(wba.FallbackCert); ok && !honest {
			certs++
		}
	})
	if !adv.released {
		t.Fatal("the release tick never came")
	}
	if certs != 0 {
		t.Errorf("the coalition sent %d fallback certificates from 2 shares", certs)
	}
	v, ok := res.Agreement()
	if !res.AllDecided() || !ok || !v.Equal(types.Value("v")) {
		t.Fatalf("late cert release broke the run: all decided %v, agreement %v %v", res.AllDecided(), v, ok)
	}
	for id, m := range machines {
		if m.DecidedAtPhase() != 1 || m.RanFallback() {
			t.Errorf("%v decided in phase %d, ran fallback %v; want phase 1, no fallback", id, m.DecidedAtPhase(), m.RanFallback())
		}
	}
}

func TestSelectiveFinalizeVictimHealedByHelpRound(t *testing.T) {
	// A Byzantine phase-1 leader finalizes everyone except p3. The victim
	// is the only undecided correct process after the phases: it asks for
	// help, the decided processes answer with the finalize certificate,
	// and it adopts the same decision — no fallback.
	params, _ := types.NewParams(9)
	res, machines := runWBA(t, 9, "s", types.Value("v"), 0, selective(params, 0), nil)
	if !res.AllDecided() {
		t.Fatal("not all decided — the help round failed the victim")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Fatalf("agreement %v %v", v, ok)
	}
	// The victim decided later than everyone else, via help.
	if machines[3].DecidedAtTick() <= machines[0].DecidedAtTick() {
		t.Errorf("victim decided at %d, others at %d — expected a delay",
			machines[3].DecidedAtTick(), machines[0].DecidedAtTick())
	}
	for id, m := range machines {
		if m.RanFallback() {
			t.Errorf("%v ran fallback; the help round should have sufficed", id)
		}
	}
}

// selective is the phase-1 leader that withholds the finalize
// certificate from p3, with t corrupted processes and, if release is
// positive, a late fallback certificate to releaseTo (every correct
// process if empty).
func selective(params types.Params, release types.Tick, releaseTo ...types.ProcessID) *WBALeader {
	a := NewWBALeader("s", corruptSet(params)...)
	a.Faces, a.Deny = []types.Value{types.Value("v")}, []types.ProcessID{3}
	a.Release, a.ReleaseTo = release, releaseTo
	return a
}

// runLateRelease runs the selective-finalize attack with a fallback
// certificate released at tick 150 to lateTo (every correct process if
// empty), and requires every correct process to decide the leader's
// value and to have run the fallback.
func runLateRelease(t *testing.T, lateTo ...types.ProcessID) {
	t.Helper()
	params, _ := types.NewParams(9)
	adv := selective(params, 150, lateTo...)
	res, machines := runWBA(t, 9, "s", types.Value("v"), 0, adv, nil)
	if !adv.released {
		t.Fatal("the late certificate was never released")
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Fatalf("late fallback changed the decision: %v %v", v, ok)
	}
	// The certificate really was released and the fallback really ran.
	ran := 0
	for _, id := range res.Honest {
		if machines[id].RanFallback() {
			ran++
		}
	}
	if ran != len(res.Honest) {
		t.Errorf("%d/%d honest processes ran the late fallback", ran, len(res.Honest))
	}
}

func TestSelectiveFinalizePlusLateCertForcesFallback(t *testing.T) {
	// Same leader attack, extended with a late certificate release: the
	// victim's help-request share plus the t corrupted shares form a
	// valid fallback certificate that the adversary withholds and
	// releases after everything went quiet. All correct processes must
	// re-activate, echo the certificate, run A_fallback — and re-confirm
	// the SAME decision (Lemma 19).
	runLateRelease(t)
}

// TestLateCertToOneProcessReachesAll is Lemma 17's test: the fallback
// certificate reaches everyone within δ of one correct process learning
// it. The late certificate goes to p0 alone, a correct process that
// decided in phase 1; only p0's echo (wba.Machine.onFallbackCert) can
// carry it to the other correct processes, and every one of them must
// still run the fallback and decide the same value.
func TestLateCertToOneProcessReachesAll(t *testing.T) {
	runLateRelease(t, 0)
}

// TestAdaptiveMidPhaseCorruption exercises the model's ADAPTIVE adversary:
// the phase-1 leader is corrupted in the middle of its own phase (after
// collecting votes, before finalizing) and goes silent. No certificate
// completes in phase 1; phase 2's correct leader heals the run.
func TestAdaptiveMidPhaseCorruption(t *testing.T) {
	// p1 proposes at tick 0, receives votes at tick 2, would commit at
	// tick 2 and finalize at tick 4 — corrupting at tick 3 kills the
	// phase after the commit broadcast but before the finalize.
	res, machines := runWBA(t, 9, "mid", types.Value("v"), 0, adversaryWithLateCorruption(3), nil)
	if !res.AllDecided() {
		t.Fatal("not all decided after mid-phase corruption")
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value("v")) {
		t.Fatalf("agreement %v %v", v, ok)
	}
	// Everyone committed in phase 1 (the commit broadcast went out) but
	// decided in phase 2 — the commit-carryover path (Alg. 4 line 36).
	for _, id := range res.Honest {
		if got := machines[id].DecidedAtPhase(); got != 2 {
			t.Errorf("%v decided at phase %d, want 2", id, got)
		}
	}
}

func adversaryWithLateCorruption(at types.Tick) sim.Adversary {
	a := &adversary.Crash{}
	a.Schedule = []sim.Corruption{{ID: 1, At: at}}
	return a
}

// TestBBVettingEquivocation: a Byzantine sender + Byzantine vetting leader
// seed the correct processes with two different sender-signed values. Both
// are BB_valid, so unique validity permits deciding either (or ⊥) — but
// never disagreement.
func TestBBVettingEquivocation(t *testing.T) {
	crypto, params := setup(t, 9)
	adv := NewBBVettingEquivocator("vt", types.Value("v1"), types.Value("v2"))
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return bb.NewMachine(bb.Config{
				Params: params, Crypto: crypto, ID: id,
				Sender: 0, Tag: "vt",
			})
		},
		Adversary: adv,
		MaxTicks:  4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("vetting equivocation broke agreement")
	}
	if !v.IsBottom() && !v.Equal(types.Value("v1")) && !v.Equal(types.Value("v2")) {
		t.Errorf("decided out-of-run value %v", v)
	}
}

// TestFloodChainForcesLinearRounds: the whisper chain delays FloodSet's
// early stopping by ~one round per crash — the round-complexity worst
// case the paper's Section 4 contrasts with its own word adaptivity.
func TestFloodChainForcesLinearRounds(t *testing.T) {
	crypto, params := setup(t, 13) // t=6
	rounds := make(map[int]types.Round)
	for _, f := range []int{0, 3, 6} {
		machines := make(map[types.ProcessID]*floodset.Machine)
		var adv sim.Adversary
		if f > 0 {
			ids := make([]types.ProcessID, f)
			for i := range ids {
				ids[i] = types.ProcessID(i + 1)
			}
			adv = NewFloodChain(types.Value("0-hidden-min"), ids...)
		}
		res, err := sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				m := floodset.NewMachine(floodset.Config{
					Params: params, ID: id,
					Input: types.Value(fmt.Sprintf("5-v%02d", id)),
				})
				machines[id] = m
				return m
			},
			Adversary: adv,
			MaxTicks:  200,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("f=%d: not all decided", f)
		}
		v, ok := res.Agreement()
		if !ok {
			t.Fatalf("f=%d: disagreement", f)
		}
		if f > 0 && !v.Equal(types.Value("0-hidden-min")) {
			t.Fatalf("f=%d: hidden minimum lost, decided %v", f, v)
		}
		var max types.Round
		for _, id := range res.Honest {
			if r := machines[id].Rounds(); r > max {
				max = r
			}
		}
		rounds[f] = max
	}
	if rounds[3] <= rounds[0] || rounds[6] <= rounds[3] {
		t.Errorf("rounds did not grow with the chain: %v", rounds)
	}
}

// runWBA runs weak BA at n under adv, every correct process starting from
// input, and returns the result with every correct process's machine.
// onSend, if not nil, sees every send.
func runWBA(t *testing.T, n int, tag string, input types.Value, quorumOverride int, adv sim.Adversary,
	onSend func(types.Tick, sim.Message, bool)) (*sim.Result, map[types.ProcessID]*wba.Machine) {
	t.Helper()
	crypto, params := setup(t, n)
	machines := make(map[types.ProcessID]*wba.Machine)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m := wba.NewMachine(wba.Config{
				Params: params, Crypto: crypto, ID: id,
				Input: input, Predicate: valid.NonBottom(),
				Tag: tag, QuorumOverride: quorumOverride,
			})
			machines[id] = m
			return m
		},
		Adversary: adv,
		MaxTicks:  2000,
		OnSend:    onSend,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range machines {
		if !slices.Contains(res.Honest, id) {
			delete(machines, id)
		}
	}
	return res, machines
}
