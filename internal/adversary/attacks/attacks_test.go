package attacks

import (
	"fmt"
	"maps"
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

// runSplitVote runs the two-faced phase-1 leader of a t-process
// coalition, denying nobody (the target is p1 itself), against the
// correct processes' quorum (0: the paper's), at which it mints too.
func runSplitVote(t *testing.T, quorumOverride int) *sim.Result {
	t.Helper()
	params, _ := types.NewParams(9)
	split := Move{Op: OpLead, Count: 1, Target: 1}
	if quorumOverride != 0 {
		split.Arg = 1 // mint at t+1
	}
	adv := Compile(Coalition(9, params.T, split), protocols.WBA, "q", 1, 2000)
	res, _ := runWBA(t, 9, "q", types.Value("honest"), quorumOverride, adv, nil)
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
	late := Genome{Corruptions: []Corrupt{{Slot: 7, Moves: []Move{{Op: OpRelease, Arg: 200}}}, {Slot: 8}}}
	var certs int
	res, machines := runWBA(t, 9, "h", types.Value("v"), 0, Compile(late, protocols.WBA, "h", 1, 2000), countCerts(&certs))
	if res.Ticks <= 200 {
		t.Fatalf("the run ended at tick %d, before the release tick", res.Ticks)
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
	res, machines := runWBA(t, 9, "s", types.Value("v"), 0, Compile(selective(), protocols.WBA, "s", 1, 2000), nil)
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

// selective is the n = 9 coalition genome whose phase-1 leader proposes
// "v" and withholds the finalize certificate from p3, followed by moves.
func selective(moves ...Move) Genome {
	return Coalition(9, 4, append([]Move{{Op: OpLead, Target: 3}}, moves...)...)
}

// countCerts returns an OnSend hook counting the Byzantine fallback
// certificate sends into certs.
func countCerts(certs *int) func(types.Tick, sim.Message, bool) {
	return func(_ types.Tick, m sim.Message, honest bool) {
		if _, ok := m.Payload.(wba.FallbackCert); ok && !honest {
			*certs++
		}
	}
}

// runLateRelease runs the selective-finalize attack with a fallback
// certificate released at tick 150 by release, and requires the
// coalition to send it want times, and every correct process to decide
// the leader's value and to have run the fallback.
func runLateRelease(t *testing.T, release Move, want int) {
	t.Helper()
	var certs int
	res, machines := runWBA(t, 9, "s", types.Value("v"), 0, Compile(selective(release), protocols.WBA, "s", 1, 2000), countCerts(&certs))
	if certs != want {
		t.Fatalf("the coalition sent the late certificate %d times, want %d", certs, want)
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
	// the SAME decision (Lemma 19). It goes to the 5 correct processes.
	runLateRelease(t, Move{Op: OpRelease, Arg: 150}, 5)
}

// TestLateCertToOneProcessReachesAll is Lemma 17's test: the fallback
// certificate reaches everyone within δ of one correct process learning
// it. The late certificate goes to p0 alone, a correct process that
// decided in phase 1; only p0's echo (wba.Machine.onFallbackCert) can
// carry it to the other correct processes, and every one of them must
// still run the fallback and decide the same value.
func TestLateCertToOneProcessReachesAll(t *testing.T) {
	runLateRelease(t, Move{Op: OpRelease, Arg: 150, Count: 1, Target: 0}, 1)
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

// TestBBVettingEquivocation: the vetting coalition, a Byzantine sender
// and a Byzantine vetting leader, seeds the correct processes with two
// different sender-signed values. Both are BB_valid, so unique validity
// permits deciding either (or ⊥), but never disagreement.
func TestBBVettingEquivocation(t *testing.T) {
	res, byz := runBB(t, 9, Vetting(Move{Op: OpLead, Count: 1}))
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("vetting equivocation broke agreement")
	}
	if !v.IsBottom() && !v.Equal(types.Value("v")) && !v.Equal(types.Value("w")) {
		t.Errorf("decided out-of-run value %v", v)
	}
	// The sender's face reaches the even-ranked p2, the leader's other
	// face the odd-ranked p3.
	var sent, pushed bool
	for _, m := range byz {
		switch p := m.Payload.(type) {
		case bb.SenderMsg:
			sent = sent || m.From == 0 && m.To == 2 && p.V.Equal(types.Value("v"))
		case bb.Vetted:
			pushed = pushed || m.From == 1 && m.To == 3 && p.Phase == 1
		}
	}
	if !sent || !pushed {
		t.Errorf("sender's face to p2 %t, leader's push to p3 %t; want both (%d Byzantine sends)", sent, pushed, len(byz))
	}
}

// TestVettingLeaderCannotSignForACorrectSender: with the sender correct
// the coalition has no sender signature, so the leader asks for help but
// pushes nothing, and BB decides the sender's value (Lemma 10).
func TestVettingLeaderCannotSignForACorrectSender(t *testing.T) {
	res, byz := runBB(t, 9, Genome{Corruptions: []Corrupt{{Slot: 1, Moves: []Move{{Op: OpLead, Count: 1}}}}})
	if v, ok := res.Agreement(); !res.AllDecided() || !ok || !v.Equal(types.Value("v")) {
		t.Fatalf("all decided %t, agreement %v %t; want the sender's v", res.AllDecided(), v, ok)
	}
	if len(byz) == 0 {
		t.Fatal("the leader sent no help request")
	}
	for _, m := range byz {
		if _, ok := m.Payload.(bb.HelpReq); !ok {
			t.Errorf("Byzantine %s from p%d to p%d: the leader signed as a correct sender", m.Payload.Type(), m.From, m.To)
		}
	}
}

// runBB runs BB at n under genome g with p0 the sender of "v", and
// returns the result and every Byzantine send.
func runBB(t *testing.T, n int, g Genome) (*sim.Result, []sim.Message) {
	t.Helper()
	crypto, params := setup(t, n)
	var byz []sim.Message
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return bb.NewMachine(bb.Config{
				Params: params, Crypto: crypto, ID: id,
				Sender: 0, Input: types.Value("v"), Tag: "vt",
			})
		},
		Adversary: Compile(g, protocols.BB, "vt", 1, 4000),
		MaxTicks:  4000,
		OnSend: func(_ types.Tick, m sim.Message, honest bool) {
			if !honest {
				byz = append(byz, m)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, byz
}

// TestFloodChainForcesLinearRounds: the whisper chain delays FloodSet's
// early stopping by ~one round per crash — the round-complexity worst
// case the paper's Section 4 contrasts with its own word adaptivity.
func TestFloodChainForcesLinearRounds(t *testing.T) {
	crypto, params := setup(t, 13) // t=6
	rounds := make(map[int]types.Round)
	for _, f := range []int{0, 3, 6} {
		machines := make(map[types.ProcessID]*floodset.Machine)
		res, err := sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				m := floodset.NewMachine(floodset.Config{
					Params: params, ID: id,
					Input: types.Value(fmt.Sprintf("x-%02d", id)),
				})
				machines[id] = m
				return m
			},
			Adversary: Compile(WhisperChain(f), protocols.FloodSet, "fs", 1, 200),
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
		if f > 0 && !v.Equal(types.Value("v")) {
			t.Fatalf("f=%d: the chain's face was lost, decided %v", f, v)
		}
		var max types.Round
		for _, id := range res.Honest {
			if r := machines[id].Rounds(); r > max {
				max = r
			}
		}
		rounds[f] = max
	}
	// One round per link on top of the failure-free two.
	if want := map[int]types.Round{0: 2, 3: 4, 6: 7}; !maps.Equal(rounds, want) {
		t.Errorf("rounds by chain length %v, want %v", rounds, want)
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
