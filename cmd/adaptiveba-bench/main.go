// Command adaptiveba-bench regenerates the paper's tables and figures
// (DESIGN.md §3) on the deterministic simulator and prints them.
//
//	adaptiveba-bench -list
//	adaptiveba-bench -exp t1-bb
//	adaptiveba-bench -all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/plot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adaptiveba-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adaptiveba-bench", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list experiments")
		exp        = fs.String("exp", "", "run one experiment by id")
		all        = fs.Bool("all", false, "run every experiment")
		sweep      = fs.Bool("sweep", false, "run an (n, f) sweep and print a table or CSV")
		protocol   = fs.String("protocol", "bb", "sweep protocol")
		nsFlag     = fs.String("ns", "11,21,41", "sweep n values (comma-separated)")
		fsFlag     = fs.String("fs", "0,1,2,4", "sweep f values (comma-separated)")
		fault      = fs.String("fault", "crash", "sweep fault pattern")
		asCSV      = fs.Bool("csv", false, "emit the sweep as CSV")
		asPlot     = fs.Bool("plot", false, "render the sweep as an ASCII chart (words vs f, one series per n)")
		workers    = fs.Int("parallel", 0, "worker count for grid points (0 = one per CPU, 1 = sequential)")
		ed25519    = fs.Bool("ed25519", false, "sweep with real Ed25519 signatures")
		certmode   = fs.String("certmode", "compact", "sweep threshold certificate encoding: compact | aggregate")
		nocache    = fs.Bool("no-verify-cache", false, "sweep with the verification fast path disabled")
		tickW      = fs.Int("tick-workers", 0, "per-tick worker count inside one run (0 = one per CPU, 1 = serial); any value yields identical output")
		benchEng   = fs.String("bench-engine-json", "", "A/B the multi-session engine's pipelined replicated log against serial slot-at-a-time execution, write a machine-readable report to this path")
		sessions   = fs.Int("sessions", 64, "engine A/B: total log slots per run")
		inflight   = fs.String("inflight", "1,4,16,64", "engine A/B: admission windows to measure (comma-separated; serial baseline first)")
		benchACS   = fs.String("bench-acs-json", "", "A/B the batched ACS log against the single-proposer pipelined log over the (n, batch, f) grid, write a machine-readable report to this path")
		batchesFl  = fs.String("batches", "1,16,64", "acs A/B: per-proposer batch sizes to measure (comma-separated)")
		benchExp   = fs.String("bench-explore-json", "", "run the adversarial schedule search over the full (n, 0..t) grid, write worst-words-vs-envelope to this path")
		benchScale = fs.String("bench-scale-json", "", "sweep the large-n grid (adaptive BB vs committee sampling vs floodset over n ∈ -scale-ns × f ∈ {0,1,√n,t}), write a machine-readable report to this path")
		scaleNs    = fs.String("scale-ns", "64,256,1024,4096", "scale sweep: n values (comma-separated)")
		expSeed    = fs.Int64("seed", 1, "explore sweep: search seed (whole report is a pure function of it)")
		expGens    = fs.Int("generations", 3, "explore sweep: generations per grid point")
		expPop     = fs.Int("population", 6, "explore sweep: population per generation")
		cpuProf    = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this path")
		memProf    = fs.String("memprofile", "", "write a pprof heap profile (after a final GC) to this path on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "adaptiveba-bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "adaptiveba-bench: -memprofile:", err)
			}
		}()
	}
	pool := harness.Pool{Workers: *workers}
	mode, err := parseCertMode(*certmode)
	if err != nil {
		return err
	}
	if *benchEng != "" {
		// The engine A/B has its own default mesh sizes; -ns overrides.
		nsStr, explicit := "9,17,33", false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "ns" {
				explicit = true
			}
		})
		if explicit {
			nsStr = *nsFlag
		}
		ns, err := parseInts(nsStr)
		if err != nil {
			return fmt.Errorf("-ns: %w", err)
		}
		windows, err := parseInts(*inflight)
		if err != nil {
			return fmt.Errorf("-inflight: %w", err)
		}
		return runBenchEngineJSON(out, *benchEng, ns, *sessions, windows)
	}
	if *benchACS != "" {
		// The ACS A/B has its own default mesh sizes and round count; -ns
		// and -sessions override.
		nsStr, rounds := "9,17,33", 4
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "ns":
				nsStr = *nsFlag
			case "sessions":
				rounds = *sessions
			}
		})
		ns, err := parseInts(nsStr)
		if err != nil {
			return fmt.Errorf("-ns: %w", err)
		}
		batches, err := parseInts(*batchesFl)
		if err != nil {
			return fmt.Errorf("-batches: %w", err)
		}
		return runBenchACSJSON(out, *benchACS, ns, batches, rounds)
	}
	if *benchExp != "" {
		// The explore sweep has its own default protocol and mesh sizes;
		// -protocol and -ns override.
		proto, nsStr := "wba", "9,17,33"
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "ns":
				nsStr = *nsFlag
			case "protocol":
				proto = *protocol
			}
		})
		ns, err := parseInts(nsStr)
		if err != nil {
			return fmt.Errorf("-ns: %w", err)
		}
		return runBenchExploreJSON(out, *benchExp, proto, ns, *expSeed, *expGens, *expPop, *workers)
	}
	if *benchScale != "" {
		ns, err := parseInts(*scaleNs)
		if err != nil {
			return fmt.Errorf("-scale-ns: %w", err)
		}
		return runBenchScaleJSON(out, *benchScale, ns)
	}
	switch {
	case *list:
		for _, e := range harness.Experiments() {
			fmt.Fprintf(out, "%-16s %s\n", e.ID, e.Title)
		}
		return nil
	case *exp != "":
		e, ok := harness.ExperimentByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		return runOne(out, e, pool)
	case *all:
		for _, e := range harness.Experiments() {
			if err := runOne(out, e, pool); err != nil {
				return err
			}
		}
		return nil
	case *sweep:
		ns, err := parseInts(*nsFlag)
		if err != nil {
			return fmt.Errorf("-ns: %w", err)
		}
		fvals, err := parseInts(*fsFlag)
		if err != nil {
			return fmt.Errorf("-fs: %w", err)
		}
		outcomes, err := pool.Sweep(harness.Spec{
			Protocol:      harness.Protocol(*protocol),
			Fault:         harness.Fault(*fault),
			Ed25519:       *ed25519,
			CertMode:      mode,
			NoVerifyCache: *nocache,
			TickWorkers:   *tickW,
		}, ns, fvals)
		if err != nil {
			return err
		}
		if *asCSV {
			return harness.WriteCSV(out, outcomes)
		}
		if *asPlot {
			fmt.Fprint(out, renderSweep(*protocol, outcomes))
			return nil
		}
		fmt.Fprint(out, harness.Table(outcomes))
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("choose -list, -exp <id>, -sweep, or -all")
	}
}

// renderSweep charts words vs f, one series per n.
func renderSweep(protocol string, outcomes []harness.Outcome) string {
	byN := map[int][]plot.Point{}
	for i := range outcomes {
		o := &outcomes[i]
		byN[o.Spec.N] = append(byN[o.Spec.N], plot.Point{X: float64(o.Spec.F), Y: float64(o.Words)})
	}
	ns := make([]int, 0, len(byN))
	for n := range byN {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	series := make([]plot.Series, 0, len(ns))
	for _, n := range ns {
		series = append(series, plot.Series{Label: fmt.Sprintf("n=%d", n), Points: byN[n]})
	}
	return plot.Render(plot.Config{
		Title:  fmt.Sprintf("%s: words vs f", protocol),
		XLabel: "f (actual failures)",
		YLabel: "words",
		LogY:   true,
	}, series...)
}

// parseCertMode maps the -certmode flag to a threshold encoding.
func parseCertMode(s string) (threshold.Mode, error) {
	switch s {
	case "compact":
		return threshold.ModeCompact, nil
	case "aggregate":
		return threshold.ModeAggregate, nil
	default:
		return 0, fmt.Errorf("-certmode: unknown mode %q (compact | aggregate)", s)
	}
}

// parseInts parses a comma-separated integer list.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func runOne(out io.Writer, e harness.Experiment, pool harness.Pool) error {
	fmt.Fprintf(out, "== %s — %s ==\n", e.ID, e.Title)
	report, err := e.Run(pool)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprintln(out, report)
	return nil
}
