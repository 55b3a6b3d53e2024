package explore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// dumpViolation writes a replayable reproducer for a schedule that broke
// an invariant to testdata/, so a failing CI run leaves the exact seed +
// genome behind. Replay with:
//
//	g, _ := attacks.DecodeHex(<genome line>)
//	explore.ReplaySchedule(cfg, g)
func dumpViolation(t *testing.T, cfg Config, c Candidate) {
	t.Helper()
	name := fmt.Sprintf("violation-%s-n%d-f%d-seed%d.txt", cfg.Protocol, cfg.N, cfg.F, cfg.Seed)
	path := filepath.Join("testdata", name)
	body := fmt.Sprintf("protocol: %s\nn: %d\nf: %d\nseed: %d\ngenome: %s\nschedule: %s\nviolations:\n  %s\n",
		cfg.Protocol, cfg.N, cfg.F, cfg.Seed, c.Genome.Hex(), c.Genome.String(),
		strings.Join(c.Violations, "\n  "))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("could not write violation dump: %v", err)
		return
	}
	t.Logf("violation reproducer written to %s", path)
}

// TestExploredSchedulesKeepInvariants is the property-based safety net:
// across protocols, mesh sizes, corruption budgets, and seeds, no
// schedule the explorer generates — random, heuristic, or bred — may
// break termination, agreement, validity, or Lemma 6. Any violator is
// dumped to testdata/ with its seed + genome for replay.
func TestExploredSchedulesKeepInvariants(t *testing.T) {
	grid := []Config{
		{Protocol: protocols.WBA, N: 5, F: 2, Seed: 1},
		{Protocol: protocols.WBA, N: 9, F: 4, Seed: 2},
		{Protocol: protocols.WBA, N: 9, F: 0, Seed: 3},
		{Protocol: protocols.BB, N: 5, F: 2, Seed: 4},
		{Protocol: protocols.BB, N: 9, F: 3, Seed: 5},
	}
	for _, cfg := range grid {
		cfg.Generations, cfg.Population = 3, 6
		t.Run(fmt.Sprintf("%s-n%d-f%d", cfg.Protocol, cfg.N, cfg.F), func(t *testing.T) {
			res, err := Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violating {
				dumpViolation(t, cfg, v)
				t.Errorf("schedule %s violated: %s", v.Genome.Hex(), strings.Join(v.Violations, "; "))
			}
			if !res.UnderEnvelope() {
				dumpViolation(t, cfg, res.Best)
				t.Errorf("worst schedule beat the envelope: %d words > %d (genome %s)",
					res.Best.Words, res.Envelope, res.Best.Genome.Hex())
			}
		})
	}
}

// TestExploreDeterministic pins the reproducibility contract: the same
// Config produces a byte-identical Report at any GOMAXPROCS — two
// independent explorers must converge on the identical worst schedule.
func TestExploreDeterministic(t *testing.T) {
	cfg := Config{Protocol: protocols.WBA, N: 5, F: 2, Seed: 7, Generations: 3, Population: 6}
	var reports []string
	for _, workers := range []int{1, 4} {
		testenv.Procs(t, workers)
		res, err := Explore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, res.Report())
	}
	if reports[0] != reports[1] {
		t.Errorf("reports differ across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", reports[0], reports[1])
	}
}

// TestReplayWorstSchedule replays the reported worst genome standalone
// and checks it reproduces the exact fitness the search recorded — the
// genome dump really is a complete reproducer.
func TestReplayWorstSchedule(t *testing.T) {
	cfg := Config{Protocol: protocols.WBA, N: 9, F: 4, Seed: 11, Generations: 3, Population: 6}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := attacks.DecodeHex(res.Best.Genome.Hex())
	if err != nil {
		t.Fatalf("worst genome does not round-trip: %v", err)
	}
	o, err := ReplaySchedule(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if o.Words != res.Best.Words || o.Ticks != res.Best.Ticks {
		t.Errorf("replay: words=%d ticks=%d, search recorded words=%d ticks=%d",
			o.Words, o.Ticks, res.Best.Words, res.Best.Ticks)
	}
}

// TestExploreSearchImproves: on the richest searched grid point, breeding
// must find schedules at least as bad as the seeded heuristic — the
// final generation's best cannot be worse than the first's.
func TestExploreSearchImproves(t *testing.T) {
	res, err := Explore(Config{Protocol: protocols.WBA, N: 9, F: 4, Seed: 3, Generations: 4, Population: 8})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Generations[0].BestWords
	last := res.Generations[len(res.Generations)-1].BestWords
	if last < first {
		t.Errorf("search regressed: generation 1 best %d words, final best %d", first, last)
	}
	if res.Best.Words < first {
		t.Errorf("overall best %d below first generation's %d", res.Best.Words, first)
	}
}

// TestCorruptedIDsMatchesAdversary: the processes the invariant check
// treats as corrupted (attacks.CorruptedIDs) and the processes the
// compiled adversary corrupts must be the same, including slot
// collisions (probing) and budget truncation.
func TestCorruptedIDsMatchesAdversary(t *testing.T) {
	g := attacks.Genome{Corruptions: []attacks.Corrupt{
		{Slot: 3}, {Slot: 3}, {Slot: 12}, {Slot: 4}, {Slot: 200},
	}}
	const n, tt = 9, 4
	ids := attacks.CorruptedIDs(g, n, tt)
	if want := []types.ProcessID{3, 4, 5, 6}; !slices.Equal(ids, want) {
		t.Fatalf("CorruptedIDs = %v, want %v (probe past collisions, truncate at t=%d)", ids, want, tt)
	}
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	adv := attacks.Compile(g, protocols.WBA, "tag", 1, 100)
	adv.Init(sim.Env{Params: params})
	cs := adv.Corruptions()
	if len(cs) != len(ids) {
		t.Fatalf("adversary corrupts %d processes, mapping says %d", len(cs), len(ids))
	}
	for i, c := range cs {
		if c.ID != ids[i] {
			t.Errorf("corruption %d: adversary id %v, mapping id %v", i, c.ID, ids[i])
		}
	}
}

// TestEnvelopePiecewise pins the envelope's shape: linear in f below the
// Lemma 6 threshold, cubic surcharge at and above it.
func TestEnvelopePiecewise(t *testing.T) {
	params, err := types.NewParams(17)
	if err != nil {
		t.Fatal(err)
	}
	n, tt := 17, params.T
	th := params.FallbackThreshold()
	if th != 4 {
		t.Fatalf("threshold(17, %d) = %d, want 4", tt, th)
	}
	below := Envelope(n, tt, th-1)
	at := Envelope(n, tt, th)
	if below != int64(EnvelopeWords)*int64(n)*int64(th) {
		t.Errorf("below threshold: envelope %d has a surcharge", below)
	}
	wantSurcharge := int64(FallbackWords) * int64(n) * int64(n) * int64(n)
	if at-int64(EnvelopeWords)*int64(n)*int64(th+1) != wantSurcharge {
		t.Errorf("at threshold: surcharge %d, want %d", at-int64(EnvelopeWords)*int64(n)*int64(th+1), wantSurcharge)
	}
}

// TestRandomGenomesAlwaysCompile: any genome the generator can draw must
// produce a runnable schedule on both protocols (no panics, run decides).
func TestRandomGenomesAlwaysCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		g := attacks.RandomGenome(rng, 2)
		for _, p := range []protocols.Kind{protocols.WBA, protocols.BB} {
			o, err := ReplaySchedule(Config{Protocol: p, N: 5, F: 2, Seed: int64(i)}, g)
			if err != nil {
				t.Fatalf("genome %s on %s: %v", g.Hex(), p, err)
			}
			if !o.Decided {
				t.Errorf("genome %s on %s: honest processes did not decide", g.Hex(), p)
			}
		}
	}
}
