// Command benchmark is the repo benchmark: four fixed-work workloads
// driven through the public functions, timed by the favourable quartile
// of 24 equal-work windows, with exact word and allocation counters and,
// under -trace 1, a per-layer ladder. See README.md in this directory.
//
//	go run ./benchmark                          every workload, untraced
//	go run ./benchmark -workload svc-put-serial one workload; last line is the result object
//	go run ./benchmark -trace 1                 the per-layer metrics and span files
//	go run ./benchmark -check-noise             two interleaved sets of runs, compared
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the fixed work is
// sized so the measured phase takes about this long on the seed code.
const defaultSeconds = 20

// host is the block every report carries.
type host struct {
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Revision   string `json:"revision"`
	Storage    string `json:"storage"`
}

func hostBlock(storage string) host {
	h := host{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: "unknown", Revision: "unknown", Storage: storage,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Revision = strings.TrimSpace(string(b))
	}
	return h
}

// driverLine is the one-line result object a -workload run ends with.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outDir is where a run started from the root of the checkout leaves its
// span files (and its storage, if /dev/shm cannot hold it).
const outDir = "benchmark/out"

// options are the parsed flags.
type options struct {
	selected   []*workload
	driver     bool // -workload given: end with the one-line result object
	seed       int64
	seconds    int
	traced     bool
	checkNoise bool
	runs       int
}

func main() {
	var o options
	name := flag.String("workload", "", "run only this workload and end with the one-line result object")
	flag.StringVar(name, "only", "", "alias of -workload")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op streams")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "size of the fixed work: about this many seconds per workload on the seed code")
	trace := flag.Int("trace", 0, "1: walk the layer ladders at 1/16 length, report the per-layer metrics, write the span files")
	flag.BoolVar(&o.checkNoise, "check-noise", false, "run two interleaved sets of untraced runs and compare their medians with the bounds")
	flag.IntVar(&o.runs, "runs", 3, "runs per set under -check-noise")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (*trace != 0 && *trace != 1) || o.runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.traced, o.driver, o.selected = *trace == 1, *name != "", workloads
	if o.driver {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		o.selected = []*workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ok, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	if err != nil || !ok {
		os.Exit(1)
	}
}

// run dispatches one invocation; ok is false when an output was wrong.
func run(ctx context.Context, o options) (bool, error) {
	if o.checkNoise {
		return checkNoiseSets(ctx, o)
	}
	e, err := newEnv(outDir)
	if err != nil {
		return false, err
	}
	defer e.close()
	if o.traced {
		rep, err := runTraced(ctx, e, o.seed, o.seconds)
		if err != nil {
			return false, err
		}
		return emit(o.driver, rep.Correct, rep.Attempted, rep.Failed, rep.Metrics, rep)
	}

	report := struct {
		Host      host      `json:"host"`
		Seconds   int       `json:"seconds"`
		Workloads []*result `json:"workloads"`
	}{Host: hostBlock(e.storage), Seconds: o.seconds}
	ok := true
	for _, w := range o.selected {
		res, err := runWorkload(ctx, e, w, o.seed, w.unitsPerWindow(o.seconds, 1), setupReps)
		if err != nil {
			return false, err
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s: wrong output: %s\n", w.name, res.Error)
			ok = false
		}
		report.Workloads = append(report.Workloads, res)
	}
	res := report.Workloads[0]
	return emit(o.driver, ok, res.Ops, res.Failed, res.Metrics, report)
}

// emit prints a run's outcome: the full report and, for a -workload
// run, the result object as the last line.
func emit(driver bool, correct bool, attempted, failed int, metrics map[string]metric, full any) (bool, error) {
	if err := printJSON(os.Stdout, full, true); err != nil || !driver {
		return correct, err
	}
	return correct, printJSON(os.Stdout, driverLine{correct, attempted, failed, metrics}, false)
}

func printJSON(f *os.File, v any, indent bool) error {
	enc := json.NewEncoder(f)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}
