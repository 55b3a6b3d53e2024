package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"adaptiveba/internal/explore"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

// explorePoint is one (n, f) grid point of the adversarial search: the
// worst schedule the explorer found against the word envelope.
type explorePoint struct {
	N int `json:"n"`
	F int `json:"f"`
	T int `json:"t"`
	// WorstWords is the most honest words any searched schedule extracted.
	WorstWords int64 `json:"worst_words"`
	// WorstTicks is that schedule's duration.
	WorstTicks int64 `json:"worst_ticks"`
	// Fallbacks counts processes whose fallback path ran under it.
	Fallbacks int `json:"fallbacks"`
	// Envelope is the piecewise adversarial word budget (see
	// explore.Envelope): 12·n·(f+1), plus 4·n³ once f reaches the
	// Lemma 6 threshold (n−t−1)/2 where the fallback may legally run.
	Envelope int64   `json:"envelope"`
	Ratio    float64 `json:"ratio"`
	Under    bool    `json:"under_envelope"`
	// Genome replays the worst schedule:
	//   adaptiveba-sim -explore ... (or explore.ReplaySchedule)
	Genome     string `json:"genome"`
	Evaluated  int    `json:"evaluated"`
	Violations int    `json:"violations"`
}

// exploreBench is the full report written by -bench-explore-json.
type exploreBench struct {
	Workload    string   `json:"workload"`
	Protocol    string   `json:"protocol"`
	Ns          []int    `json:"ns"`
	Seed        int64    `json:"seed"`
	Generations int      `json:"generations"`
	Population  int      `json:"population"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Host        hostMeta `json:"host"`

	Sweep []explorePoint `json:"sweep"`

	// AllUnderEnvelope is the headline: no searched schedule at any grid
	// point extracted more honest words than the O(n(f+1)) envelope.
	AllUnderEnvelope bool `json:"all_under_envelope"`
	// TotalViolations counts invariant-breaking schedules found (0 for a
	// correct implementation; each would be replayable from its genome).
	TotalViolations int `json:"total_violations"`
}

// runBenchExploreJSON runs the adversarial schedule search across the
// full (n, f) grid — every f from 0 to t at each mesh size — and writes
// the worst-schedule-vs-envelope report to path. The whole sweep is a
// pure function of (protocol, ns, seed, generations, population):
// re-running it must reproduce the committed BENCH_explore.json bytes
// (modulo gomaxprocs).
func runBenchExploreJSON(out io.Writer, path string, protocol string, ns []int, seed int64, generations, population, workers int) error {
	rep := exploreBench{
		Workload:    "adversarial schedule search: worst honest words vs O(n(f+1)) envelope",
		Protocol:    protocol,
		Ns:          ns,
		Seed:        seed,
		Generations: generations,
		Population:  population,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Host:        newHostMeta(),
	}
	rep.AllUnderEnvelope = true
	for _, n := range ns {
		params, err := types.NewParams(n)
		if err != nil {
			return err
		}
		for f := 0; f <= params.T; f++ {
			res, err := explore.Explore(explore.Config{
				Protocol:    protocols.Kind(protocol),
				N:           n,
				F:           f,
				Seed:        seed,
				Generations: generations,
				Population:  population,
				Workers:     workers,
			})
			if err != nil {
				return fmt.Errorf("explore n=%d f=%d: %w", n, f, err)
			}
			pt := explorePoint{
				N:          n,
				F:          f,
				T:          res.T,
				WorstWords: res.Best.Words,
				WorstTicks: int64(res.Best.Ticks),
				Fallbacks:  res.Best.Fallbacks,
				Envelope:   res.Envelope,
				Ratio:      res.Ratio(),
				Under:      res.UnderEnvelope(),
				Genome:     res.Best.Genome.Hex(),
				Evaluated:  res.Evaluated,
				Violations: len(res.Violating),
			}
			rep.Sweep = append(rep.Sweep, pt)
			rep.TotalViolations += pt.Violations
			if !pt.Under {
				rep.AllUnderEnvelope = false
			}
			fmt.Fprintf(out, "bench-explore-json: n=%-3d f=%-2d worst %7d words (fb=%d) envelope %8d ratio %.3f under=%v\n",
				n, f, pt.WorstWords, pt.Fallbacks, pt.Envelope, pt.Ratio, pt.Under)
		}
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  all_under_envelope=%v violations=%d\n", rep.AllUnderEnvelope, rep.TotalViolations)
	fmt.Fprintf(out, "  wrote %s\n", path)
	if !rep.AllUnderEnvelope {
		return fmt.Errorf("envelope violation: a searched schedule beat the O(n(f+1)) budget (see %s)", path)
	}
	if rep.TotalViolations > 0 {
		return fmt.Errorf("%d invariant-violating schedules found (see %s)", rep.TotalViolations, path)
	}
	return nil
}
