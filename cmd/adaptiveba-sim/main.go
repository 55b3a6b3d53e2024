// Command adaptiveba-sim runs one protocol in the deterministic simulator
// and prints the decision plus the paper's cost metrics.
//
// Examples:
//
//	adaptiveba-sim -protocol bb -n 21 -f 3
//	adaptiveba-sim -protocol strongba -n 101 -f 0
//	adaptiveba-sim -protocol wba -n 9 -f 3 -fault replay -trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/explore"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adaptiveba-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adaptiveba-sim", flag.ContinueOnError)
	var kinds, faults []string
	for _, k := range protocols.Kinds() {
		kinds = append(kinds, string(k))
	}
	for _, p := range attacks.Patterns {
		faults = append(faults, p.Name)
	}
	var (
		protocol = fs.String("protocol", "bb", "protocol: "+strings.Join(kinds, " | "))
		n        = fs.Int("n", 9, "number of processes")
		f        = fs.Int("f", 0, "number of corrupted processes")
		fault    = fs.String("fault", "crash", "fault pattern: "+strings.Join(faults, " | "))
		inputs   = fs.String("inputs", "unanimous", "input assignment: unanimous | distinct")
		value    = fs.String("value", "v", "broadcast / unanimous input value")
		seed     = fs.Int64("seed", 1, "seed for randomized adversaries")
		ed25519  = fs.Bool("ed25519", false, "use real Ed25519 signatures")
		certmode = fs.String("certmode", "compact", "threshold certificate encoding: compact | aggregate")
		trace    = fs.Bool("trace", false, "print the message trace")
		layers   = fs.Bool("layers", true, "print the per-layer word breakdown")
		reps     = fs.Int("reps", 1, "repetitions with derived seeds (> 1 prints a min/median/max summary)")
		sessions = fs.Int("sessions", 1, "run this many concurrent instances of the protocol through the multi-session engine")
		acsMode  = fs.Bool("acs", false, "run the batched replicated log: -sessions ACS rounds of n proposer batches each (uses -n, -f, -batch, -inflight)")
		batch    = fs.Int("batch", 1, "commands per proposer batch (-acs rounds and -protocol acs)")
		inflight = fs.Int("inflight", 0, "engine admission window: max sessions in flight (0 = all at once, 1 = strictly serial)")
		expl     = fs.Bool("explore", false, "search adversary schedules for the worst case instead of running one spec (bb | wba; uses -n, -f, -seed)")
		gens     = fs.Int("generations", 4, "explore: search generations")
		popsize  = fs.Int("population", 8, "explore: schedules per generation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 1 {
		return fmt.Errorf("-batch: need at least 1, got %d", *batch)
	}
	if *acsMode {
		rounds := *sessions
		if rounds < 1 {
			rounds = 1
		}
		cfg := engine.Config{N: *n, F: *f, Inflight: *inflight, Seed: *seed}
		if *ed25519 {
			var err error
			if cfg.Crypto, err = engine.NewCrypto(*n, 0, proto.Ed25519()); err != nil {
				return err
			}
		}
		return runACS(out, cfg, rounds, *batch)
	}
	if *expl {
		return runExplore(out, explore.Config{
			Protocol:    protocols.Kind(*protocol),
			N:           *n,
			F:           *f,
			Seed:        *seed,
			Generations: *gens,
			Population:  *popsize,
		})
	}

	mode, err := threshold.ParseMode(*certmode)
	if err != nil {
		return fmt.Errorf("-certmode: %w", err)
	}
	spec := harness.Spec{
		Protocol: harness.Protocol(*protocol),
		N:        *n,
		F:        *f,
		Fault:    harness.Fault(*fault),
		Inputs:   harness.Inputs(*inputs),
		Value:    types.Value(*value),
		Seed:     *seed,
		Ed25519:  *ed25519,
		CertMode: mode,
		Batch:    *batch,
	}
	if *trace {
		spec.OnSend = sim.TraceTo(out)
	}
	if *sessions > 1 {
		return runEngine(out, spec, *sessions, *inflight)
	}
	if *reps > 1 {
		return runReps(out, spec, *reps)
	}
	o, err := harness.Run(spec)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "protocol    %s\n", o.Spec.Protocol)
	fmt.Fprintf(out, "n, t, f     %d, %d, %d\n", o.Spec.N, (o.Spec.N-1)/2, o.Spec.F)
	fmt.Fprintf(out, "decision    %s\n", o.Decision)
	fmt.Fprintf(out, "agreement   %v (all decided: %v)\n", o.Agreement, o.Decided)
	fmt.Fprintf(out, "words       %d   (%.1f per process)\n", o.Words, float64(o.Words)/float64(o.Spec.N))
	fmt.Fprintf(out, "messages    %d\n", o.Messages)
	fmt.Fprintf(out, "ticks (δ)   %d\n", o.Ticks)
	fmt.Fprintf(out, "steps       %d   (machine Begin/Tick calls)\n", o.Steps)
	fmt.Fprintf(out, "fallback    %d processes\n", o.FallbackCount)
	// Only when the cache was consulted: the default HMAC ring with compact
	// certificates verifies everything directly (nothing there costs more
	// than a lookup), -ed25519 and -certmode aggregate go through the cache.
	if o.CacheHits+o.CacheMisses > 0 {
		fmt.Fprintf(out, "verify $    %d hits / %d misses\n", o.CacheHits, o.CacheMisses)
	}
	if *layers && len(o.ByLayer) > 0 {
		fmt.Fprintln(out, "\nper-layer words (Figure 1 composition):")
		names := make([]string, 0, len(o.ByLayer))
		for l := range o.ByLayer {
			names = append(names, l)
		}
		sort.Strings(names)
		for _, l := range names {
			s := o.ByLayer[l]
			fmt.Fprintf(out, "  %-24s %8d words %8d msgs\n", l, s.Words, s.Messages)
		}
	}
	if !o.Agreement || !o.Decided {
		return fmt.Errorf("run violated agreement or termination")
	}
	return nil
}

// runExplore runs the adversary-schedule search and prints its report:
// the per-generation worst-schedule table plus the overall worst schedule
// against the O(n(f+1)) envelope, with the replayable genome dump. The
// report is byte-identical for a given seed at any -parallel value.
func runExplore(out io.Writer, cfg explore.Config) error {
	res, err := explore.Explore(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Report())
	if len(res.Violating) > 0 {
		return fmt.Errorf("explore found %d invariant violations", len(res.Violating))
	}
	return nil
}

// runEngine pushes the spec through the multi-session engine and prints
// the schedule plus per-session results.
func runEngine(out io.Writer, spec harness.Spec, sessions, inflight int) error {
	rep, err := harness.RunEngine(spec, sessions, inflight)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "protocol    %s × %d sessions\n", spec.Protocol, sessions)
	fmt.Fprintf(out, "n, t, f     %d, %d, %d\n", rep.N, rep.T, rep.F)
	fmt.Fprintf(out, "admission   window %d\n", inflight)
	fmt.Fprintf(out, "schedule    stride %d, session %d, total %d ticks (δ)\n",
		rep.Stride, rep.SessionTicks, rep.Ticks)
	fmt.Fprintf(out, "words       %d total\n", rep.Metrics.Honest.Words)
	fmt.Fprintln(out, "\nper-session:")
	violated := false
	for _, s := range rep.Sessions {
		fmt.Fprintf(out, "  %-6s start %-5d decision %-10q agree=%-5v words %-6d fallback %d\n",
			s.Name, s.Start, []byte(s.Decision), s.Agreement, s.Words, s.FallbackProcs)
		if !s.Agreement || !s.AllDecided {
			violated = true
		}
	}
	if violated || rep.TimedOut {
		return fmt.Errorf("engine run violated agreement or termination")
	}
	return nil
}

// runACS drives the batched replicated log (-acs): `rounds` ACS rounds,
// each committing a ≥ n−t subset of n proposer batches, flattened into
// one total order and replayed through the kv state machine. The
// per-round table shows the committed subset and request count; the
// footer gives the amortized word cost per committed command.
func runACS(out io.Writer, cfg engine.Config, rounds, batch int) error {
	queues := make([][]types.Value, cfg.N)
	for p := range queues {
		for j := 0; j < rounds*batch; j++ {
			queues[p] = append(queues[p], types.Value(fmt.Sprintf("SET k%d-%d v%d", p, j, j)))
		}
	}
	rep, err := engine.RunACSLog(cfg, queues, rounds, batch)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "protocol    acs × %d rounds, batch %d\n", rounds, batch)
	fmt.Fprintf(out, "n, t, f     %d, %d, %d\n", rep.Engine.N, rep.Engine.T, rep.Engine.F)
	fmt.Fprintf(out, "schedule    stride %d, round %d, total %d ticks (δ)\n",
		rep.Engine.Stride, rep.Engine.SessionTicks, rep.Engine.Ticks)
	fmt.Fprintln(out, "\nper-round:")
	for _, r := range rep.Rounds {
		fmt.Fprintf(out, "  round %-3d subset %d/%d   %d commands\n",
			r.Round, r.Subset, rep.Engine.N, r.Requests)
	}
	words := rep.Engine.Metrics.Honest.Words
	fmt.Fprintf(out, "\ncommitted   %d commands (min subset %d)\n", rep.Committed, rep.SubsetMin)
	fmt.Fprintf(out, "words       %d total", words)
	if rep.Committed > 0 {
		fmt.Fprintf(out, "   (%.1f per committed command)", float64(words)/float64(rep.Committed))
	}
	fmt.Fprintln(out)
	hash, rejected := rep.Replay()
	fmt.Fprintf(out, "state hash  %s\n", hash)
	if len(rejected) > 0 {
		fmt.Fprintf(out, "rejected    %d commands\n", len(rejected))
	}
	if !rep.Converged {
		return fmt.Errorf("acs log violated agreement or termination")
	}
	return nil
}

// runReps executes the spec reps times with DeriveSeed-assigned seeds,
// one worker per CPU, and prints the aggregate. Output is identical at
// every GOMAXPROCS (the runner's determinism guarantee).
func runReps(out io.Writer, spec harness.Spec, reps int) error {
	seeds := make([]int64, reps)
	for r := range seeds {
		seeds[r] = harness.DeriveSeed(spec.Seed, int64(spec.N), int64(spec.F), int64(r))
	}
	st, err := harness.Repeat(spec, seeds)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "protocol    %s\n", spec.Protocol)
	fmt.Fprintf(out, "n, f, runs  %d, %d, %d\n", spec.N, spec.F, st.Runs)
	fmt.Fprintf(out, "words       min %d   median %d   max %d\n", st.Words.Min, st.Words.Median, st.Words.Max)
	fmt.Fprintf(out, "ticks (δ)   min %d   median %d   max %d\n", st.Ticks.Min, st.Ticks.Median, st.Ticks.Max)
	fmt.Fprintf(out, "violations  %d\n", st.Violations)
	if st.Violations > 0 {
		return fmt.Errorf("%d of %d runs violated agreement or termination", st.Violations, st.Runs)
	}
	return nil
}
