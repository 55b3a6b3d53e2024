package attacks

import (
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// Compile-time interface satisfaction for the package's one adversary,
// which runs every attack: it must be a full sim.Adversary (the
// adversary.Core lifecycle — Init, Corruptions, the Observe/Act hooks,
// Quiescent). Core has no Quiescent, so an adversary that does not state
// its own horizon (or loses it to a rename) fails here at build time,
// not at the first simulation whose skipped ticks drop one of its
// actions.
var _ sim.Adversary = (*genomeAdversary)(nil)

// TestEveryAttackFollowsTheCoreLifecycle drives each attack through the
// engine's call order without a simulation: Init then Corruptions must
// be safe before any tick, the corruption schedule must be within the
// declared ids, and every attack must eventually report quiescent (a
// never-quiescent adversary deadlocks the run-termination check).
func TestEveryAttackFollowsTheCoreLifecycle(t *testing.T) {
	params, err := types.NewParams(7)
	if err != nil {
		t.Fatal(err)
	}
	ids := []types.ProcessID{1, 2}
	coalition := func(moves ...Move) sim.Adversary {
		return Compile(Coalition(params.N, len(ids), moves...), protocols.WBA, "tag", 1, 100)
	}
	builds := map[string]sim.Adversary{
		"wba-phase-spam":     Compile(PhaseSpam(protocols.WBA, ids...), protocols.WBA, "tag", 1, 100),
		"bb-phase-spam":      Compile(PhaseSpam(protocols.BB, ids...), protocols.BB, "tag", 1, 100),
		"bb-vetting-equiv":   Compile(Vetting(Move{Op: OpLead, Count: 1}), protocols.BB, "tag", 1, 100),
		"flood-chain":        Compile(WhisperChain(len(ids)), protocols.FloodSet, "tag", 1, 100),
		"wba-help-spam":      Compile(helpSpam(ids...), protocols.WBA, "tag", 1, 100),
		"late-cert-release":  coalition(Move{Op: OpRelease, Arg: 25}),
		"selective-phase":    coalition(Move{Op: OpLead, Target: 3}),
		"wba-split-vote":     coalition(Move{Op: OpLead, Count: 1, Target: 1}),
		"core-only-is-crash": adversary.NewCrash(ids...),
	}
	for name, adv := range builds {
		t.Run(name, func(t *testing.T) {
			adv.Init(sim.Env{Params: params})
			cs := adv.Corruptions()
			if len(cs) == 0 {
				t.Fatal("attack corrupts nothing")
			}
			if len(cs) > params.T {
				t.Fatalf("schedule corrupts %d > t=%d processes", len(cs), params.T)
			}
			seen := map[types.ProcessID]bool{}
			for _, c := range cs {
				if seen[c.ID] {
					t.Fatalf("duplicate corruption of %v", c.ID)
				}
				seen[c.ID] = true
			}
			// Every attack must go quiescent by some horizon, or runs
			// whose honest machines finished would never terminate.
			quiet := false
			for now := types.Tick(0); now <= 10_000; now++ {
				if adv.Quiescent(now) {
					quiet = true
					break
				}
			}
			if !quiet {
				t.Error("attack never reports quiescent within 10k ticks")
			}
		})
	}
}
