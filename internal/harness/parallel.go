// Parallel experiment runner: a worker pool that maps independent grid
// points (one Spec each) to their outcomes, with per-run isolated state
// and deterministic per-point seed derivation.
//
// Determinism contract: Run(spec) depends only on the spec (every run
// builds a private signature ring, crypto suite, simulator, and
// recorder), and Pool.Run writes outcome i into slot i of its result. A
// sweep executed with any worker count therefore produces byte-identical
// tables, CSVs, and reports; TestParallelDeterminism enforces this.
package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"adaptiveba/internal/types"
)

// Pool schedules independent harness runs across a fixed number of
// workers. The zero value uses one worker per CPU (GOMAXPROCS).
type Pool struct {
	// Workers is the worker count: <= 0 means GOMAXPROCS(0), 1 runs
	// strictly sequentially in the caller's goroutine.
	Workers int
}

// workers resolves the effective worker count for a job list.
func (p Pool) workers(jobs int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// pointErr labels a failed grid point with its coordinates.
func pointErr(i int, s Spec, err error) error {
	return fmt.Errorf("point %d (%s n=%d f=%d seed=%d): %w", i, s.Protocol, s.N, s.F, s.Seed, err)
}

// Run executes every spec and returns the outcomes in spec order. Each
// worker claims the next index i and writes outcome i into slot i. The
// first failed run stops further claims; points are claimed in order, so
// every point before a failed one has run, and the error returned is the
// one of the lowest failed point, whatever the worker count.
func (p Pool) Run(specs []Spec) ([]Outcome, error) {
	outs := make([]Outcome, len(specs))
	errs := make([]error, len(specs))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(specs) {
				return
			}
			o, err := Run(specs[i])
			if err != nil {
				errs[i] = pointErr(i, specs[i], err)
				failed.Store(true)
				return
			}
			outs[i] = *o
		}
	}
	for k := 1; k < p.workers(len(specs)); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// DeriveSeed maps a base seed plus grid coordinates (n, f, repetition,
// ...) to a per-point seed. The derivation is a pure function of the
// point, never of scheduling order, so sequential and parallel sweeps
// assign identical seeds — the root of the byte-identical guarantee for
// randomized adversaries.
func DeriveSeed(base int64, coords ...int64) int64 {
	x := splitmix64(uint64(base) + 0x9e3779b97f4a7c15)
	for _, c := range coords {
		x = splitmix64(x + 0x9e3779b97f4a7c15 + uint64(c))
	}
	return int64(x)
}

// Grid expands base across the (n, f) sweep lattice in row-major order,
// skipping infeasible f > t points. Every point keeps base's seed.
func Grid(base Spec, ns, fs []int) ([]Spec, error) {
	var specs []Spec
	for _, n := range ns {
		var params types.Params
		var err error
		if base.T > 0 {
			params, err = types.Custom(n, base.T)
		} else {
			params, err = types.NewParams(n)
		}
		if err != nil {
			return nil, err
		}
		for _, f := range fs {
			if f > params.T {
				continue
			}
			s := base
			s.N, s.F = n, f
			specs = append(specs, s)
		}
	}
	return specs, nil
}

// Sweep runs the spec across (n, f) combinations on this pool.
func (p Pool) Sweep(base Spec, ns, fs []int) ([]Outcome, error) {
	specs, err := Grid(base, ns, fs)
	if err != nil {
		return nil, err
	}
	return p.Run(specs)
}

// Stats executes the spec once per seed on this pool and aggregates
// the outcomes. The aggregation is order-independent, so any worker
// count produces the same Stats.
func (p Pool) Stats(spec Spec, seeds []int64) (*Stats, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("%w: no seeds", ErrSpec)
	}
	specs := make([]Spec, len(seeds))
	for i, seed := range seeds {
		specs[i] = spec
		specs[i].Seed = seed
	}
	outs, err := p.Run(specs)
	if err != nil {
		return nil, err
	}
	words := make([]int64, len(outs))
	ticks := make([]types.Tick, len(outs))
	st := &Stats{Spec: spec, Runs: len(seeds)}
	for i := range outs {
		o := &outs[i]
		if !o.Decided || !o.Agreement {
			st.Violations++
		}
		words[i], ticks[i] = o.Words, o.Ticks
	}
	slices.Sort(words)
	slices.Sort(ticks)
	st.Words.Min, st.Words.Median, st.Words.Max = words[0], words[len(words)/2], words[len(words)-1]
	st.Ticks.Min, st.Ticks.Median, st.Ticks.Max = ticks[0], ticks[len(ticks)/2], ticks[len(ticks)-1]
	return st, nil
}
