package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// endToEndDefs fixes the ten end-to-end metrics: direction and the share
// of the parent's median by which each may worsen. BENCHMARK.json
// carries the same table.
var endToEndDefs = []struct {
	name, unit   string
	higherBetter bool
	bound        float64
}{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"lat_p50_ms", "ms", false, 0.25},
	{"lat_p90_ms", "ms", false, 0.25},
	{"cpu_ms_per_op", "ms", false, 0.25},
	{"allocs_per_op", "1", false, 0.05},
	{"alloc_kb_per_op", "KiB", false, 0.05},
	{"words_per_commit", "words", false, 0.06},
	{"live_heap_mb", "MiB", false, 0.10},
	{"ok_frac", "ratio", true, 0.001},
}

// checkNoiseSets is the noise self-check: two sets of untraced runs of
// the same tree, interleaved A B A B …, each run a fresh process. It
// prints each set's median and quartiles per metric and workload and
// fails when two set medians differ by more than the metric's bound, or
// when a count that must repeat exactly does not.
func checkNoiseSets(ctx context.Context, o options) (bool, error) {
	selected, runs := o.selected, o.runs
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	hashes := map[string]string{}
	ok := true
	for r := 0; r < 2*runs; r++ {
		for _, w := range selected {
			fmt.Fprintf(os.Stderr, "check-noise: run %d of %d (set %c): %s\n", r+1, 2*runs, 'A'+r%2, w.name)
			cmd := exec.CommandContext(ctx, self, "-workload", w.name,
				"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return false, fmt.Errorf("run %d of %s: %w", r+1, w.name, err)
			}
			// The child prints its full report, then the result line.
			var full struct{ Workloads []*result }
			if err := json.NewDecoder(bytes.NewReader(out)).Decode(&full); err != nil || len(full.Workloads) != 1 {
				return false, fmt.Errorf("run %d of %s: unreadable report: %v", r+1, w.name, err)
			}
			res := full.Workloads[0]
			for name, m := range res.Metrics {
				k := key{w.name, name}
				sets[r%2][k] = append(sets[r%2][k], m.Value)
			}
			if prev, seen := hashes[w.name]; seen && prev != res.StateHash {
				fmt.Printf("FAIL %s: state_hash %s differs from an earlier run's %s\n", w.name, res.StateHash, prev)
				ok = false
			}
			hashes[w.name] = res.StateHash
		}
	}

	fmt.Printf("%-16s %-17s %13s %13s %13s | %13s %13s %13s | %7s %6s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "diff", "bound")
	for _, w := range selected {
		for _, d := range endToEndDefs {
			a, b := sets[0][key{w.name, d.name}], sets[1][key{w.name, d.name}]
			aq1, am, aq3 := quartiles(a)
			bq1, bm, bq3 := quartiles(b)
			diff := math.Abs(am-bm) / math.Min(am, bm)
			verdict := ""
			if diff > d.bound {
				verdict, ok = "  FAIL: set medians differ by more than the bound", false
			}
			if all := append(append([]float64(nil), a...), b...); mustRepeat(w.name, d.name) && spread(all) > repeatTolerance(d.name) {
				verdict, ok = "  FAIL: a count that must repeat does not", false
			}
			fmt.Printf("%-16s %-17s %13.5f %13.5f %13.5f | %13.5f %13.5f %13.5f | %6.2f%% %5.1f%%%s\n",
				w.name, d.name, aq1, am, aq3, bq1, bm, bq3, diff*100, d.bound*100, verdict)
		}
		fmt.Printf("%-16s state_hash %s\n", w.name, hashes[w.name])
	}
	return ok, nil
}

// mustRepeat reports the counters that are a function of the seed alone.
// svc-put-burst32's words and allocations depend on where the server's
// run loop happens to cut its flushes.
func mustRepeat(workload, metric string) bool {
	switch metric {
	case "ok_frac":
		return true
	case "words_per_commit", "allocs_per_op":
		return workload != "svc-put-burst32"
	}
	return false
}

// repeatTolerance is 0 for exact counts; allocation counts include the
// runtime's own and repeat within half a percent.
func repeatTolerance(metric string) float64 {
	if metric == "allocs_per_op" {
		return 0.005
	}
	return 0
}

// spread is (max-min)/min.
func spread(v []float64) float64 {
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / lo
}
