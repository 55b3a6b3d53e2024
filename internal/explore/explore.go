// Package explore is a reproducible mutation-search engine over
// adversary schedules: it runs candidate genomes (attacks.Genome:
// corruption timing, equivocation and selective targets, help-spam
// patterns, replay/flood choices, and message-delivery order) through
// the experiment harness, and hill-climbs/tournament-selects to
// maximize the honest words and rounds a schedule extracts per (n, f).
//
// The paper's O(n(f+1)) word bound is an adversarial worst-case claim.
// The fixed attack library (internal/adversary/attacks) checks a handful
// of known strategies; the explorer instead *searches* the schedule
// space and reports the worst schedule found against the envelope —
// turning the test suite from "known attacks pass" into an active
// falsifier. Every run is deterministic in its seed: the same seed
// produces a byte-identical report, and any schedule (including a
// safety violation) is replayable from its seed + genome dump.
package explore

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// Config parameterizes one search.
type Config struct {
	// Protocol is one of the two adaptive protocols whose word bound the
	// paper claims: protocols.WBA (the default) or protocols.BB.
	Protocol protocols.Kind
	N        int
	F        int // corruption budget of searched schedules (≤ t)
	// Seed drives the whole search: population seeding, mutation, and
	// tournament draws. Same seed ⇒ byte-identical Result and Report.
	Seed        int64
	Generations int // default 4
	Population  int // default 8
}

// elites is the number of top-ranked schedules each generation carries
// into the next verbatim.
const elites = 2

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Protocol == "" {
		c.Protocol = protocols.WBA
	}
	if c.Generations <= 0 {
		c.Generations = 4
	}
	if c.Population <= 0 {
		c.Population = 8
	}
	return c
}

// Candidate is one evaluated schedule.
type Candidate struct {
	Genome attacks.Genome
	Words  int64 // honest words — the quantity the envelope bounds
	// Ticks is the latest honest decision tick (harness.Outcome.
	// DecisionTick): the protocol's latency under the schedule, not how
	// long the adversary kept the run up.
	Ticks     types.Tick
	Fallbacks int
	Decided   bool
	Agreement bool
	Decision  types.Value
	// Violations lists broken safety/liveness invariants (empty for a
	// correct implementation; any entry is a falsification, reproducible
	// from Config.Seed + Genome).
	Violations []string
}

// GenerationStat summarizes one generation for the report table.
type GenerationStat struct {
	Gen       int
	BestWords int64
	BestTicks types.Tick
	BestFB    int
	MeanWords int64
	Best      attacks.Genome
}

// Result is one complete search outcome.
type Result struct {
	Config      Config
	T           int // resolved corruption threshold
	Generations []GenerationStat
	// Best is the worst schedule found: the candidate extracting the most
	// honest words (ties: the latest decision).
	Best Candidate
	// Violating collects every evaluated candidate that broke an
	// invariant, each replayable from its genome.
	Violating []Candidate
	Evaluated int
	// Envelope is the O(n(f+1)) word budget for this grid point.
	Envelope int64
}

// Envelope constants. The repository's claim (DESIGN.md, T1-WBA) is
// piecewise: honest words are Θ(n(f+1)) in the adaptive regime
// f < (n−t−1)/2, where the fallback provably never runs (Lemma 6), and
// may additionally pay the fallback's cost above that threshold. This
// implementation's A_fallback is n parallel Dolev–Strong — Θ(n³) words
// (the paper's Momose–Ren instantiation would be Θ(n²)) — measured at
// ≈3n² words per process (BENCH_explore.json), so the surcharge constant
// 4 leaves margin without hiding a regression.
const (
	// EnvelopeWords is the adaptive-regime constant: ≤ EnvelopeWords·n
	// honest words per actual corruption (+1). Worst searched schedules
	// sit under 5 words per process per (f+1); 12 is the falsification
	// line — any schedule found above it is a bug, not noise.
	EnvelopeWords = 12
	// FallbackWords·n³ is the fallback-regime surcharge.
	FallbackWords = 4
)

// Envelope is the adversarial honest-word budget for an (n, f) grid
// point: EnvelopeWords·n·(f+1), plus the fallback surcharge once f
// reaches Lemma 6's threshold, where the quadratic path may legally
// trigger.
func Envelope(n, t, f int) int64 {
	e := int64(EnvelopeWords) * int64(n) * int64(f+1)
	if f >= (types.Params{N: n, T: t}).FallbackThreshold() {
		e += int64(FallbackWords) * int64(n) * int64(n) * int64(n)
	}
	return e
}

// Spec builds the harness spec evaluating genome g under the search
// configuration. The spec is a pure function of (Config, g): the
// adversary's replay randomness is seeded from the genome itself, so a
// genome's fitness is identical wherever and whenever it is evaluated.
func (c Config) Spec(g attacks.Genome) harness.Spec {
	advSeed := harness.DeriveSeed(c.Seed, g.ShuffleSeed)
	return harness.Spec{
		Protocol:    c.Protocol,
		N:           c.N,
		F:           c.F,
		Seed:        c.Seed,
		ShuffleSeed: g.ShuffleSeed,
		Adversary: func(maxTicks types.Tick) sim.Adversary {
			return attacks.Compile(g, c.Protocol, harness.Tag(c.Protocol), advSeed, maxTicks)
		},
	}
}

// ReplaySchedule re-runs one schedule outside a search — the reproducer
// for any reported worst schedule or violation dump.
func ReplaySchedule(cfg Config, g attacks.Genome) (*harness.Outcome, error) {
	cfg = cfg.withDefaults()
	return harness.Run(cfg.Spec(g))
}

// checkInvariants derives the violation list for one evaluated schedule.
// Termination and agreement are unconditional. Validity is protocol-
// specific: weak BA under the default any-non-⊥ predicate may decide any
// value a phase leader proposed — honest "v" or the adversary's "w"/"u"
// — but nothing else, and must decide exactly "v" in corruption-free
// runs; BB must decide the sender's value whenever the sender is honest.
func checkInvariants(cfg Config, t int, g attacks.Genome, o *harness.Outcome) []string {
	var v []string
	if !o.Decided {
		v = append(v, "termination: not every honest process decided")
	}
	if !o.Agreement {
		v = append(v, "agreement: honest decisions differ")
	}
	if !o.Decided || !o.Agreement {
		return v
	}
	corrupted := attacks.CorruptedIDs(g, cfg.N, t)
	// Lemma 6: below the fallback threshold no schedule can assemble the
	// (t+1)-share fallback certificate, so the quadratic path must stay
	// off. A single fallback run down there is a falsification.
	if th := (types.Params{N: cfg.N, T: t}).FallbackThreshold(); len(corrupted) < th && o.FallbackCount > 0 {
		v = append(v, fmt.Sprintf("lemma6: fallback ran in %d processes at f=%d < threshold %d",
			o.FallbackCount, len(corrupted), th))
	}
	switch cfg.Protocol {
	case protocols.BB:
		senderCorrupt := false
		for _, id := range corrupted {
			if id == 0 {
				senderCorrupt = true
			}
		}
		if !senderCorrupt && !o.Decision.Equal(types.Value("v")) {
			v = append(v, fmt.Sprintf("validity: honest sender sent %q, decided %q", "v", o.Decision))
		}
	default: // weak BA
		if len(corrupted) == 0 {
			if !o.Decision.Equal(types.Value("v")) {
				v = append(v, fmt.Sprintf("validity: failure-free run decided %q, want %q", o.Decision, "v"))
			}
			break
		}
		switch {
		case o.Decision.Equal(types.Value("v")),
			o.Decision.Equal(types.Value("w")),
			o.Decision.Equal(types.Value("u")):
		default:
			v = append(v, fmt.Sprintf("validity: decided %q, not among the run's proposable values", o.Decision))
		}
	}
	return v
}

// better orders candidates by fitness: more honest words, then a later
// decision, then (for a stable total order at any worker count) smaller
// genome encoding.
func better(a, b *Candidate) bool {
	if a.Words != b.Words {
		return a.Words > b.Words
	}
	if a.Ticks != b.Ticks {
		return a.Ticks > b.Ticks
	}
	return strings.Compare(a.Genome.Hex(), b.Genome.Hex()) < 0
}

// seedPopulation draws the initial genomes. The first slot is the known
// worst-case heuristic — all F corruptions spam their rotating-leader
// phases from tick 0 (the paper's own lower-bound run family) — so the
// search starts at the theory's floor and can only climb from there. A
// weak BA search with F ≥ 1 seeds the second slot with the coalition
// that attacks both of weak BA's defences: p1 leads phase 1 with two
// faces at the paper's quorum (the split vote), and the coalition
// releases the fallback certificate after the first help round. A BB
// search with F ≥ 2 seeds it with the vetting coalition: the sender p0
// and vetting leader p1 hand the correct processes two faces, and the
// other F − 2 corruptions spam as in the first slot.
func seedPopulation(rng *rand.Rand, cfg Config, t int) []attacks.Genome {
	pop := make([]attacks.Genome, cfg.Population)
	spam := attacks.Genome{}
	for i := 0; i < cfg.F; i++ {
		spam.Corruptions = append(spam.Corruptions, attacks.Corrupt{
			Slot:  uint8((i + 1) % 256),
			Moves: []attacks.Move{{Op: attacks.OpProposeSpam, Arg: uint8(i)}, {Op: attacks.OpHelpSpam}},
		})
	}
	pop[0] = spam
	i := 1
	switch {
	case cfg.Population < 2:
	case cfg.Protocol == protocols.WBA && cfg.F >= 1:
		split := attacks.Move{Op: attacks.OpLead, Count: 1, Target: 1}
		release := attacks.Move{Op: attacks.OpRelease, Arg: uint8(min(wba.PhaseStart(t+3), 255))}
		pop[1], i = attacks.Coalition(cfg.N, cfg.F, split, release), 2
	case cfg.Protocol == protocols.BB && cfg.F >= 2:
		pop[1], i = attacks.Vetting(attacks.Move{Op: attacks.OpLead, Count: 1}), 2
		pop[1].Corruptions = append(pop[1].Corruptions, spam.Corruptions[1:cfg.F-1]...)
	}
	for ; i < cfg.Population; i++ {
		pop[i] = attacks.RandomGenome(rng, cfg.F)
	}
	return pop
}

// nextGen breeds the following population: the elites survive verbatim, the
// rest are mutants of tournament winners (binary tournament). Mutate
// copies, so no genome is ever changed in place and survivors may share
// storage with their parents.
func nextGen(rng *rand.Rand, cfg Config, ranked []Candidate) []attacks.Genome {
	pop := make([]attacks.Genome, 0, cfg.Population)
	for i := 0; i < elites && i < len(ranked); i++ {
		pop = append(pop, ranked[i].Genome)
	}
	for len(pop) < cfg.Population {
		a := &ranked[rng.Intn(len(ranked))]
		b := &ranked[rng.Intn(len(ranked))]
		winner := a
		if better(b, a) {
			winner = b
		}
		pop = append(pop, attacks.Mutate(rng, winner.Genome))
	}
	return pop
}

// Explore runs the search: seed a population, evaluate every genome
// through the parallel harness, select, mutate, repeat. All randomness
// (population seeding, mutation, tournament draws) happens on the
// caller's goroutine from one seeded source; evaluation parallelism
// cannot perturb it (harness.RunAll returns outcomes in spec order), so
// the whole Result is a pure function of Config.
func Explore(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	params, err := types.NewParams(cfg.N)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if cfg.F < 0 || cfg.F > params.T {
		return nil, fmt.Errorf("explore: f=%d with t=%d", cfg.F, params.T)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := seedPopulation(rng, cfg, params.T)

	res := &Result{Config: cfg, T: params.T, Envelope: Envelope(cfg.N, params.T, cfg.F)}
	var best *Candidate
	for gen := 1; gen <= cfg.Generations; gen++ {
		specs := make([]harness.Spec, len(pop))
		for i, g := range pop {
			specs[i] = cfg.Spec(g)
		}
		outs, err := harness.RunAll(specs)
		if err != nil {
			return nil, fmt.Errorf("explore: generation %d: %w", gen, err)
		}

		ranked := make([]Candidate, len(pop))
		var sum int64
		for i := range outs {
			o := &outs[i]
			ranked[i] = Candidate{
				Genome:     pop[i],
				Words:      o.Words,
				Ticks:      o.DecisionTick,
				Fallbacks:  o.FallbackCount,
				Decided:    o.Decided,
				Agreement:  o.Agreement,
				Decision:   o.Decision,
				Violations: checkInvariants(cfg, params.T, pop[i], o),
			}
			sum += o.Words
			if len(ranked[i].Violations) > 0 {
				res.Violating = append(res.Violating, ranked[i])
			}
		}
		res.Evaluated += len(ranked)
		sort.SliceStable(ranked, func(a, b int) bool { return better(&ranked[a], &ranked[b]) })

		res.Generations = append(res.Generations, GenerationStat{
			Gen:       gen,
			BestWords: ranked[0].Words,
			BestTicks: ranked[0].Ticks,
			BestFB:    ranked[0].Fallbacks,
			MeanWords: sum / int64(len(ranked)),
			Best:      ranked[0].Genome,
		})
		if best == nil || better(&ranked[0], best) {
			c := ranked[0]
			best = &c
		}
		if gen < cfg.Generations {
			pop = nextGen(rng, cfg, ranked)
		}
	}
	res.Best = *best
	return res, nil
}

// UnderEnvelope reports whether the worst schedule found stays within
// the O(n(f+1)) budget.
func (r *Result) UnderEnvelope() bool { return r.Best.Words <= r.Envelope }

// Ratio is worst-observed words over the envelope.
func (r *Result) Ratio() float64 { return float64(r.Best.Words) / float64(r.Envelope) }

// Report renders the deterministic search report: the per-generation
// worst-schedule table, the overall worst schedule against the envelope,
// and the replayable genome dump. Byte-identical for a given Config.
func (r *Result) Report() string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "explore protocol=%s n=%d f=%d t=%d seed=%d population=%d generations=%d\n",
		c.Protocol, c.N, c.F, r.T, c.Seed, c.Population, c.Generations)
	fmt.Fprintf(&b, "%4s %12s %7s %4s %12s\n", "gen", "best-words", "ticks", "fb", "mean-words")
	for _, g := range r.Generations {
		fmt.Fprintf(&b, "%4d %12d %7d %4d %12d\n", g.Gen, g.BestWords, g.BestTicks, g.BestFB, g.MeanWords)
	}
	fmt.Fprintf(&b, "worst schedule: words=%d ticks=%d fallback=%d envelope=%d ratio=%.3f under=%v\n",
		r.Best.Words, r.Best.Ticks, r.Best.Fallbacks, r.Envelope, r.Ratio(), r.UnderEnvelope())
	fmt.Fprintf(&b, "violations: %d\n", len(r.Violating))
	for _, v := range r.Violating {
		fmt.Fprintf(&b, "  VIOLATION genome=%s: %s\n", v.Genome.Hex(), strings.Join(v.Violations, "; "))
	}
	fmt.Fprintf(&b, "genome: %s\n", r.Best.Genome.Hex())
	fmt.Fprintf(&b, "schedule: %s\n", r.Best.Genome.String())
	return b.String()
}
