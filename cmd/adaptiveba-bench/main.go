// Command adaptiveba-bench regenerates the paper's tables and figures
// (DESIGN.md §3) on the deterministic simulator and prints them.
//
//	adaptiveba-bench -list
//	adaptiveba-bench -exp t1-bb
//	adaptiveba-bench -all
//	adaptiveba-bench -bench engine   # writes BENCH_engine.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"adaptiveba/internal/adversary/attacks"
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
	var faults []string
	for _, p := range attacks.Patterns {
		faults = append(faults, p.Name)
	}
	var (
		list     = fs.Bool("list", false, "list experiments")
		exp      = fs.String("exp", "", "run one experiment by id")
		all      = fs.Bool("all", false, "run every experiment")
		sweep    = fs.Bool("sweep", false, "run an (n, f) sweep and print a table or CSV")
		protocol = fs.String("protocol", "bb", "sweep protocol")
		nsFlag   = fs.String("ns", "11,21,41", "sweep n values (comma-separated)")
		fsFlag   = fs.String("fs", "0,1,2,4", "sweep f values (comma-separated)")
		fault    = fs.String("fault", "crash", "sweep fault pattern: "+strings.Join(faults, " | "))
		asCSV    = fs.Bool("csv", false, "emit the sweep as CSV")
		asPlot   = fs.Bool("plot", false, "render the sweep as an ASCII chart (words vs f, one series per n)")
		ed25519  = fs.Bool("ed25519", false, "sweep with real Ed25519 signatures")
		certmode = fs.String("certmode", "compact", "sweep threshold certificate encoding: compact | aggregate")
		bench    = fs.String("bench", "", "run one committed bench over its fixed grid and write its JSON report: "+strings.Join(benchNames(), " | "))
		outPath  = fs.String("o", "", "-bench report path (default BENCH_<name>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := threshold.ParseMode(*certmode)
	if err != nil {
		return fmt.Errorf("-certmode: %w", err)
	}
	if *bench != "" {
		path := *outPath
		if path == "" {
			path = "BENCH_" + *bench + ".json"
		}
		return runBench(out, *bench, benches[*bench].grid, path)
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
		return runOne(out, e)
	case *all:
		for _, e := range harness.Experiments() {
			if err := runOne(out, e); err != nil {
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
		outcomes, err := harness.Sweep(harness.Spec{
			Protocol: harness.Protocol(*protocol),
			Fault:    harness.Fault(*fault),
			Ed25519:  *ed25519,
			CertMode: mode,
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
		return fmt.Errorf("choose -list, -exp <id>, -sweep, -all, or -bench <name>")
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

func runOne(out io.Writer, e harness.Experiment) error {
	fmt.Fprintf(out, "== %s — %s ==\n", e.ID, e.Title)
	report, err := e.Run()
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprintln(out, report)
	return nil
}
