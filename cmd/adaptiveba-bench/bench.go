package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"adaptiveba/internal/engine"
	"adaptiveba/internal/explore"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

// report is the one schema of every BENCH_*.json file: which bench ran,
// on which code and machine, over which grid, what each grid point
// measured, and whether the bench's claims held.
type report struct {
	Bench    string          `json:"bench"`
	Revision string          `json:"revision"` // see gitRevision
	Host     hostMeta        `json:"host"`
	Grid     grid            `json:"grid"`
	Rows     []row           `json:"rows"`
	Checks   map[string]bool `json:"checks"`
}

// hostMeta records the machine a report was produced on: wall clock and
// allocation rates are only comparable on the same host.
type hostMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// grid is the fixed input of one bench; each bench reads only its own
// fields.
type grid struct {
	Protocols   []string `json:"protocols,omitempty"` // explore, scale
	Fault       string   `json:"fault,omitempty"`     // scale
	Ns          []int    `json:"ns"`
	Rounds      int      `json:"rounds,omitempty"`  // log length: BB slots (engine, acs baseline) or ACS rounds (acs)
	Windows     []int    `json:"windows,omitempty"` // engine admission windows; the first is the reference
	Batches     []int    `json:"batches,omitempty"` // acs commands per proposer batch
	Seed        int64    `json:"seed,omitempty"`    // explore search seed
	Generations int      `json:"generations,omitempty"`
	Population  int      `json:"population,omitempty"`
}

// row is one measured grid point. Its fields are labels and raw counts;
// a ratio of two of them is printed, never stored. Only WallSeconds and
// AllocsPerTick vary between runs of the same grid.
type row struct {
	// Protocol is "log" (single-proposer log over BB) or "acs" (batched
	// ACS log) for engine and acs rows, the protocol kind otherwise.
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	F        int    `json:"f"`
	Inflight int    `json:"inflight,omitempty"`
	Batch    int    `json:"batch,omitempty"`

	Words        int64  `json:"words"`
	Messages     int64  `json:"messages,omitempty"`
	Ticks        int64  `json:"ticks"`
	Steps        int64  `json:"steps,omitempty"` // simulator Begin/Tick calls on the honest roots (scale only)
	SessionTicks int64  `json:"session_ticks,omitempty"`
	Stride       int64  `json:"stride,omitempty"`
	DecisionTick int64  `json:"decision_tick,omitempty"`
	Commits      int    `json:"commits,omitempty"`
	SubsetMin    int    `json:"subset_min,omitempty"`
	StateHash    string `json:"state_hash,omitempty"`
	Decided      bool   `json:"decided,omitempty"`
	Agreement    bool   `json:"agreement,omitempty"`

	// Explore: the worst schedule found (Words and Ticks are its cost),
	// its envelope, and the replayable genome.
	Fallbacks  int    `json:"fallbacks,omitempty"`
	Envelope   int64  `json:"envelope,omitempty"`
	Genome     string `json:"genome,omitempty"`
	Evaluated  int    `json:"evaluated,omitempty"`
	Violations int    `json:"violations,omitempty"`

	// Skipped marks a scale cell too costly to simulate; EstimatedWords
	// is its explore.Envelope instead.
	Skipped        bool  `json:"skipped,omitempty"`
	EstimatedWords int64 `json:"estimated_words,omitempty"`

	// AllocsPerTick is the whole run's heap allocations over its ticks,
	// machine construction included (scale only).
	AllocsPerTick float64 `json:"allocs_per_tick,omitempty"`
	WallSeconds   float64 `json:"wall_seconds"`
}

// benches maps each -bench name to its fixed grid and its runner. A
// runner prints one line per row and returns the rows and the bench's
// checks; an error means a run failed outright.
var benches = map[string]struct {
	grid grid
	run  func(io.Writer, grid) ([]row, map[string]bool, error)
}{
	"engine":  {grid{Ns: []int{9, 17, 33}, Rounds: 64, Windows: []int{1, 4, 16, 64}}, runEngine},
	"acs":     {grid{Ns: []int{9, 17, 33}, Rounds: 4, Batches: []int{1, 16, 64}}, runACS},
	"explore": {grid{Protocols: []string{"wba"}, Ns: []int{9, 17, 33}, Seed: 1, Generations: 3, Population: 6}, runExplore},
	"scale":   {grid{Protocols: []string{"bb", "committee", "floodset"}, Fault: "crash", Ns: []int{64, 256, 1024, 4096, 16384}}, runScale},
}

func benchNames() []string {
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runBench runs one bench over g and writes its report to path.
func runBench(out io.Writer, name string, g grid, path string) error {
	b, ok := benches[name]
	if !ok {
		return fmt.Errorf("-bench: unknown bench %q (%s)", name, strings.Join(benchNames(), " | "))
	}
	rows, checks, err := b.run(out, g)
	if err != nil {
		return fmt.Errorf("bench %s: %w", name, err)
	}
	return writeReport(out, path, &report{
		Bench:    name,
		Revision: gitRevision(),
		Host: hostMeta{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Grid:   g,
		Rows:   rows,
		Checks: checks,
	})
}

// writeReport writes rep to path and then fails if any check is false —
// after writing, so a failing report can be read.
func writeReport(out io.Writer, path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	var failed []string
	for name, ok := range rep.Checks {
		if !ok {
			failed = append(failed, name)
		}
	}
	sort.Strings(failed)
	fmt.Fprintf(out, "wrote %s: %d checks, %d false\n", path, len(rep.Checks), len(failed))
	if len(failed) > 0 {
		return fmt.Errorf("bench %s: false checks %s (see %s)", rep.Bench, strings.Join(failed, ", "), path)
	}
	return nil
}

// gitRevision is the checkout's HEAD, marked "-dirty" when tracked .go
// files anywhere in the checkout (":/") differ from it, or "unknown"
// outside a git checkout. `go run` stamps no VCS data into the binary,
// so it is read from git.
func gitRevision() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if exec.Command("git", "diff", "--quiet", "HEAD", "--", ":/*.go").Run() != nil {
		rev += "-dirty"
	}
	return rev
}

// slotQueues gives `slots` single-command slots to rotating proposers.
func slotQueues(n, slots int) [][]types.Value {
	queues := make([][]types.Value, n)
	for s := 0; s < slots; s++ {
		p := s % n
		queues[p] = append(queues[p], types.Value(fmt.Sprintf("SET slot%d p%d", s, p)))
	}
	return queues
}

// acsQueues gives every proposer enough commands for every round.
func acsQueues(n, rounds, batch int) [][]types.Value {
	queues := make([][]types.Value, n)
	for p := range queues {
		for j := 0; j < rounds*batch; j++ {
			queues[p] = append(queues[p], types.Value(fmt.Sprintf("SET k%d-%d v%d", p, j, j)))
		}
	}
	return queues
}

// measureLog runs `rounds` ACS rounds of `batch` commands per proposer
// (batch > 0) or `rounds` single-command BB slots, and returns the row
// and engine fingerprint of the log, which must converge.
func measureLog(cfg engine.Config, rounds, batch int) (row, string, error) {
	r := row{Protocol: "log", N: cfg.N, F: cfg.F, Inflight: cfg.Inflight, Batch: batch}
	start := time.Now()
	var lr *engine.LogReport
	var err error
	if batch == 0 {
		lr, err = engine.RunLog(cfg, slotQueues(cfg.N, rounds), rounds)
	} else {
		var ar *engine.ACSLogReport
		if ar, err = engine.RunACSLog(cfg, acsQueues(cfg.N, rounds, batch), rounds, batch); err == nil {
			lr, r.Protocol, r.SubsetMin = &ar.LogReport, "acs", ar.SubsetMin
		}
	}
	r.WallSeconds = time.Since(start).Seconds()
	if err == nil && !lr.Converged {
		err = errors.New("log did not converge")
	}
	if err != nil {
		return r, "", fmt.Errorf("%s n=%d f=%d inflight=%d batch=%d: %w", r.Protocol, cfg.N, cfg.F, cfg.Inflight, batch, err)
	}
	r.Words = lr.Engine.Metrics.Honest.Words
	r.Ticks = int64(lr.Engine.Ticks)
	r.SessionTicks = int64(lr.Engine.SessionTicks)
	r.Stride = int64(lr.Engine.Stride)
	r.Commits = lr.Committed
	r.StateHash, _ = lr.Replay()
	return r, lr.Engine.Fingerprint(), nil
}

// runEngine A/Bs the pipelined replicated log against serial
// slot-at-a-time execution: g.Rounds BB slots with rotating proposers at
// every n, once per admission window. Pipelining may change only the
// schedule, so every window's engine fingerprint (per-session decisions,
// words and messages) and kv state hash must equal the first window's.
func runEngine(out io.Writer, g grid) ([]row, map[string]bool, error) {
	var rows []row
	identical := true
	for _, n := range g.Ns {
		var first row
		var firstFP string
		for i, w := range g.Windows {
			r, fp, err := measureLog(engine.Config{N: n, Inflight: w, Seed: 7}, g.Rounds, 0)
			if err != nil {
				return nil, nil, err
			}
			if i == 0 {
				first, firstFP = r, fp
			}
			same := fp == firstFP && r.StateHash == first.StateHash
			identical = identical && same
			rows = append(rows, r)
			fmt.Fprintf(out, "engine n=%-3d W=%-3d ticks=%-6d commits=%d  %.2f commits/ktick  %.2fx fewer ticks than W=%d  identical=%v  (%.2fs wall)\n",
				n, w, r.Ticks, r.Commits, 1000*float64(r.Commits)/float64(r.Ticks),
				float64(first.Ticks)/float64(r.Ticks), first.Inflight, same, r.WallSeconds)
		}
	}
	return rows, map[string]bool{"decisions_identical": identical}, nil
}

// runACS A/Bs the batched ACS log against the single-proposer log over
// n × f ∈ {0, t} × batch, both at window 2. Per slot the ACS round
// commits an ≥ n−t subset of n proposer batches where the baseline
// commits at most one command; at f = 0 it must commit at least n/2
// times the baseline's requests. Every arm re-runs at GOMAXPROCS 8 and
// with window 1, and its fingerprint and state hash must not move.
func runACS(out io.Writer, g grid) ([]row, map[string]bool, error) {
	var rows []row
	identical, ratioOK, subsetOK := true, true, true
	for _, n := range g.Ns {
		params, err := types.NewParams(n)
		if err != nil {
			return nil, nil, err
		}
		faults := []int{0, params.T}
		baseCommits := make(map[int]int, len(faults))
		for _, f := range faults {
			r, _, err := measureLog(engine.Config{N: n, F: f, Inflight: 2, Seed: 7}, g.Rounds, 0)
			if err != nil {
				return nil, nil, err
			}
			baseCommits[f] = r.Commits
			rows = append(rows, r)
			fmt.Fprintf(out, "acs n=%-3d f=%-2d baseline  %d commits over %d slots  %.1f words/commit\n",
				n, f, r.Commits, g.Rounds, float64(r.Words)/float64(max(r.Commits, 1)))
		}
		for _, f := range faults {
			for _, batch := range g.Batches {
				cfg := engine.Config{N: n, F: f, Inflight: 2, Seed: 7}
				r, fp, err := measureLog(cfg, g.Rounds, batch)
				if err != nil {
					return nil, nil, err
				}
				window := cfg
				window.Inflight = 1
				same := true
				for _, arm := range []struct {
					cfg   engine.Config
					procs int // 0 keeps GOMAXPROCS as it is
				}{{cfg, 8}, {window, 0}} {
					prev := runtime.GOMAXPROCS(arm.procs)
					vr, vfp, err := measureLog(arm.cfg, g.Rounds, batch)
					runtime.GOMAXPROCS(prev)
					if err != nil {
						return nil, nil, err
					}
					same = same && vfp == fp && vr.StateHash == r.StateHash
				}
				ratio := float64(r.Commits) / float64(baseCommits[f])
				identical = identical && same
				ratioOK = ratioOK && (f > 0 || ratio >= float64(n)/2)
				subsetOK = subsetOK && r.SubsetMin >= n-params.T
				rows = append(rows, r)
				fmt.Fprintf(out, "acs n=%-3d f=%-2d batch=%-3d %d commands  subset≥%d  %.1f req/slot (%.1fx vs single)  %.1f words/req  identical=%v  (%.2fs wall)\n",
					n, f, batch, r.Commits, r.SubsetMin, float64(r.Commits)/float64(g.Rounds), ratio,
					float64(r.Words)/float64(max(r.Commits, 1)), same, r.WallSeconds)
			}
		}
	}
	return rows, map[string]bool{
		"decisions_identical":          identical,
		"f0_ratio_vs_single_ge_half_n": ratioOK,
		"subset_ge_n_minus_t":          subsetOK,
	}, nil
}

// runExplore runs the adversarial schedule search at every (n, f ≤ t)
// and records the worst schedule found against explore.Envelope. The
// rows are a pure function of the grid.
func runExplore(out io.Writer, g grid) ([]row, map[string]bool, error) {
	var rows []row
	under, violations := true, 0
	for _, protocol := range g.Protocols {
		for _, n := range g.Ns {
			params, err := types.NewParams(n)
			if err != nil {
				return nil, nil, err
			}
			for f := 0; f <= params.T; f++ {
				start := time.Now()
				res, err := explore.Explore(explore.Config{
					Protocol:    protocols.Kind(protocol),
					N:           n,
					F:           f,
					Seed:        g.Seed,
					Generations: g.Generations,
					Population:  g.Population,
				})
				if err != nil {
					return nil, nil, fmt.Errorf("explore %s n=%d f=%d: %w", protocol, n, f, err)
				}
				r := row{
					Protocol:    protocol,
					N:           n,
					F:           f,
					Words:       res.Best.Words,
					Ticks:       int64(res.Best.Ticks),
					Fallbacks:   res.Best.Fallbacks,
					Envelope:    res.Envelope,
					Genome:      res.Best.Genome.Hex(),
					Evaluated:   res.Evaluated,
					Violations:  len(res.Violating),
					WallSeconds: time.Since(start).Seconds(),
				}
				under = under && res.UnderEnvelope()
				violations += r.Violations
				rows = append(rows, r)
				fmt.Fprintf(out, "explore %s n=%-3d f=%-2d worst %7d words (fb=%d) envelope %8d ratio %.3f violations=%d\n",
					protocol, n, f, r.Words, r.Fallbacks, r.Envelope, res.Ratio(), r.Violations)
			}
		}
	}
	return rows, map[string]bool{"all_under_envelope": under, "no_violations": violations == 0}, nil
}

// scaleSkipFromN is the smallest n at which adaptive BB's fallback-regime
// cells are estimated instead of run: the fallback's n parallel
// Dolev–Strong instances send Θ(n³) words, billions from n = 1024 on.
const scaleSkipFromN = 1024

// scaleBBOnlyFromN is the smallest n at which only adaptive BB runs, and
// only at f ∈ {0, 1}: the baselines send Θ(n²) messages a round, more
// than a host's memory holds there, while a failure-free BB steps each
// process about seven times.
const scaleBBOnlyFromN = 16384

// isqrt returns ⌈√n⌉.
func isqrt(n int) int { return int(math.Ceil(math.Sqrt(float64(n)))) }

// scaleFs is the f axis at one n: {0, 1, ⌈√n⌉, t}, deduplicated.
func scaleFs(p types.Params) []int {
	var fs []int
	for _, f := range []int{0, 1, isqrt(p.N), p.T} {
		if len(fs) == 0 || f > fs[len(fs)-1] {
			fs = append(fs, f)
		}
	}
	return fs
}

// runScale sweeps n × f ∈ {0, 1, ⌈√n⌉, t} × protocol (adaptive BB at
// f ∈ {0, 1} alone from scaleBBOnlyFromN), one cell at a time so that a
// cell's wall clock and allocation rate are its own.
func runScale(out io.Writer, g grid) ([]row, map[string]bool, error) {
	var rows []row
	for _, n := range g.Ns {
		params, err := types.NewParams(n)
		if err != nil {
			return nil, nil, err
		}
		fs, protocols := scaleFs(params), g.Protocols
		if n >= scaleBBOnlyFromN {
			fs, protocols = []int{0, 1}, []string{string(harness.ProtocolBB)}
		}
		for _, f := range fs {
			for _, protocol := range protocols {
				r, err := runScaleCell(protocol, harness.Fault(g.Fault), params, f)
				if err != nil {
					return nil, nil, err
				}
				rows = append(rows, r)
				status := "ok"
				if r.Skipped {
					status = fmt.Sprintf("skipped: fallback regime (f ≥ %d), ≈ %d words estimated", params.FallbackThreshold(), r.EstimatedWords)
				} else if !r.Decided || !r.Agreement {
					status = "NO DECISION"
				}
				fmt.Fprintf(out, "%-10s n=%-5d f=%-5d %12d words %8.1f w/proc %10d steps %7.2fs  %s\n",
					protocol, n, f, r.Words, float64(r.Words)/float64(n), r.Steps, r.WallSeconds, status)
			}
		}
	}
	return rows, scaleChecks(rows), nil
}

// runScaleCell runs one scale cell and measures its words, wall clock and
// allocation rate. The cell runs once unmeasured first, so the timed run
// finds the heap and the pooled buffers in the state its own kind of run
// leaves, not whatever the cells before it left: without it the first
// floodset cell at n = 4 096 read 14.5–16.7 s and the three after it
// 3.5–8.8 s. The runs are deterministic, so only the timing differs.
func runScaleCell(protocol string, fault harness.Fault, p types.Params, f int) (row, error) {
	r := row{Protocol: protocol, N: p.N, F: f}
	if protocol == string(harness.ProtocolBB) && p.N >= scaleSkipFromN && f >= p.FallbackThreshold() {
		r.Skipped = true
		r.EstimatedWords = explore.Envelope(p.N, p.T, f)
		return r, nil
	}
	spec := harness.Spec{Protocol: harness.Protocol(protocol), N: p.N, F: f, Fault: fault}
	if _, err := harness.Run(spec); err != nil {
		return r, fmt.Errorf("%s n=%d f=%d: warm-up: %w", protocol, p.N, f, err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	o, err := harness.Run(spec)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return r, fmt.Errorf("%s n=%d f=%d: %w", protocol, p.N, f, err)
	}
	r.Words = o.Words
	r.Messages = o.Messages
	r.Ticks = int64(o.Ticks)
	r.Steps = o.Steps
	r.DecisionTick = int64(o.DecisionTick)
	r.Decided = o.Decided
	r.Agreement = o.Agreement
	r.WallSeconds = wall.Seconds()
	if o.Ticks > 0 {
		r.AllocsPerTick = float64(after.Mallocs-before.Mallocs) / float64(o.Ticks)
	}
	return r, nil
}

// scaleChecks derives the scale claims from the rows, counting a cell as
// decided only if its honest processes decided and agree: adaptive BB
// sends fewer words than committee sampling at every f ≤ ⌈√n⌉ below
// scaleBBOnlyFromN, where committee sampling runs
// (adaptive_wins_few_fault), and every protocol decides at f = 0.
func scaleChecks(rows []row) map[string]bool {
	type cell struct {
		protocol string
		n, f     int
	}
	decided := make(map[cell]row, len(rows))
	for _, r := range rows {
		if !r.Skipped && r.Decided && r.Agreement {
			decided[cell{r.Protocol, r.N, r.F}] = r
		}
	}
	wins, f0 := true, true
	for _, r := range rows {
		if _, ok := decided[cell{r.Protocol, r.N, r.F}]; r.F == 0 && !ok {
			f0 = false
		}
		if r.F <= isqrt(r.N) && r.N < scaleBBOnlyFromN {
			a, okA := decided[cell{string(harness.ProtocolBB), r.N, r.F}]
			c, okC := decided[cell{string(harness.ProtocolCommittee), r.N, r.F}]
			wins = wins && okA && okC && a.Words < c.Words
		}
	}
	return map[string]bool{"adaptive_wins_few_fault": wins, "f0_decided_every_n": f0}
}
