package harness

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// determinismGrid is a mixed-protocol, mixed-adversary spec list: every
// point family the parallel runner must reproduce bit-for-bit,
// including the randomized replay adversary (seed-driven).
func determinismGrid(t *testing.T) []Spec {
	t.Helper()
	specs := []Spec{
		{Protocol: ProtocolBB, N: 9, F: 0},
		{Protocol: ProtocolBB, N: 9, F: 2},
		{Protocol: ProtocolBB, N: 9, F: 2, Fault: FaultSpam},
		{Protocol: ProtocolWBA, N: 9, F: 3},
		{Protocol: ProtocolWBA, N: 9, F: 2, Fault: FaultSpam},
		{Protocol: ProtocolStrongBA, N: 7, F: 1},
		{Protocol: ProtocolEchoBB, N: 7, F: 1},
		{Protocol: ProtocolDolevStrong, N: 7, F: 1},
		{Protocol: ProtocolWBA, N: 9, F: 3, Fault: FaultReplay, Seed: 7},
		{Protocol: ProtocolWBA, N: 9, F: 3, Fault: FaultReplay, Seed: 8},
	}
	if !testing.Short() {
		more, err := Grid(Spec{Protocol: ProtocolBB}, []int{7, 11, 15}, []int{0, 1, 3, 5}, 2)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, more...)
	}
	return specs
}

// TestParallelDeterminism is the runner's core guarantee: the same grid
// run sequentially and at several worker counts yields identical
// per-point metrics, decisions, and CSV bytes.
func TestParallelDeterminism(t *testing.T) {
	specs := determinismGrid(t)
	ref, err := Sequential().Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := WriteCSV(&refCSV, ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		outs, err := Pool{Workers: workers}.Run(specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(outs) != len(ref) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(outs), len(ref))
		}
		for i := range outs {
			// Whether a lookup hits the cache or joins an in-flight
			// verification depends on thread timing (the tick engine
			// fans out at TickWorkers 0); only the sum is deterministic.
			got, want := outs[i], ref[i]
			if got.CacheHits+got.CacheWaits != want.CacheHits+want.CacheWaits {
				t.Errorf("workers=%d point %d: cache hits+waits = %d+%d, sequential %d+%d",
					workers, i, got.CacheHits, got.CacheWaits, want.CacheHits, want.CacheWaits)
			}
			got.CacheHits, got.CacheWaits, want.CacheHits, want.CacheWaits = 0, 0, 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d point %d (%s n=%d f=%d): parallel outcome differs from sequential\n got %+v\nwant %+v",
					workers, i, specs[i].Protocol, specs[i].N, specs[i].F, got, want)
			}
		}
		var csv bytes.Buffer
		if err := WriteCSV(&csv, outs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv.Bytes(), refCSV.Bytes()) {
			t.Errorf("workers=%d: CSV bytes differ from sequential run", workers)
		}
	}
}

// TestExperimentReportsDeterministic checks a full experiment — the
// layer-breakdown report with map-ordered sections — is byte-identical
// across pools.
func TestExperimentReportsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment is slow")
	}
	e, ok := ExperimentByID("f1")
	if !ok {
		t.Fatal("f1 not registered")
	}
	ref, err := e.Run(Sequential())
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(Pool{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("parallel report differs from sequential:\n got: %q\nwant: %q", got, ref)
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, 9, 2, 0) != DeriveSeed(1, 9, 2, 0) {
		t.Error("DeriveSeed is not deterministic")
	}
	seen := make(map[int64][]int64)
	for _, c := range [][]int64{
		{1, 9, 2, 0}, {1, 9, 2, 1}, {1, 9, 3, 0}, {1, 11, 2, 0}, {2, 9, 2, 0},
		{1, 2, 9, 0}, // coordinate order matters
	} {
		s := DeriveSeed(c[0], c[1:]...)
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision: %v and %v both derive %d", prev, c, s)
		}
		seen[s] = c
	}
}

func TestGrid(t *testing.T) {
	t.Run("skips infeasible f", func(t *testing.T) {
		specs, err := Grid(Spec{Protocol: ProtocolBB}, []int{7, 11}, []int{0, 3, 5}, 1)
		if err != nil {
			t.Fatal(err)
		}
		// n=7 has t=3, so f=5 is skipped there; n=11 (t=5) keeps all three.
		want := []struct{ n, f int }{{7, 0}, {7, 3}, {11, 0}, {11, 3}, {11, 5}}
		if len(specs) != len(want) {
			t.Fatalf("got %d specs, want %d", len(specs), len(want))
		}
		for i, w := range want {
			if specs[i].N != w.n || specs[i].F != w.f {
				t.Errorf("specs[%d] = (n=%d, f=%d), want (n=%d, f=%d)", i, specs[i].N, specs[i].F, w.n, w.f)
			}
		}
	})
	t.Run("reps derive distinct seeds", func(t *testing.T) {
		specs, err := Grid(Spec{Protocol: ProtocolWBA, Seed: 3}, []int{9}, []int{0, 1}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != 6 {
			t.Fatalf("got %d specs, want 6", len(specs))
		}
		seeds := make(map[int64]bool)
		for _, s := range specs {
			if seeds[s.Seed] {
				t.Errorf("duplicate derived seed %d", s.Seed)
			}
			seeds[s.Seed] = true
		}
		// Re-deriving must agree point-wise, independent of expansion order.
		if specs[4].Seed != DeriveSeed(3, 9, 1, 1) {
			t.Error("derived seed is not a pure function of (base, n, f, rep)")
		}
	})
	t.Run("custom resilience", func(t *testing.T) {
		specs, err := Grid(Spec{Protocol: ProtocolBB, T: 2}, []int{11}, []int{0, 2, 3}, 1)
		if err != nil {
			t.Fatal(err)
		}
		// t is pinned at 2, so f=3 is infeasible even though n=11.
		if len(specs) != 2 {
			t.Fatalf("got %d specs, want 2 (f=3 must be skipped at t=2)", len(specs))
		}
	})
	t.Run("rejects bad n", func(t *testing.T) {
		if _, err := Grid(Spec{Protocol: ProtocolBB}, []int{2}, []int{0}, 1); err == nil {
			t.Error("Grid accepted n=2")
		}
	})
}

func TestStreamEmitsInOrder(t *testing.T) {
	specs := make([]Spec, 12)
	for i := range specs {
		specs[i] = Spec{Protocol: ProtocolWBA, N: 7, F: i % 3}
	}
	for _, workers := range []int{1, 3, 5} {
		nextWant := 0
		err := Pool{Workers: workers}.Stream(specs, func(i int, o *Outcome) error {
			if i != nextWant {
				t.Fatalf("workers=%d: emitted point %d, want %d", workers, i, nextWant)
			}
			if o == nil || !o.Decided {
				t.Fatalf("workers=%d point %d: bad outcome %+v", workers, i, o)
			}
			nextWant++
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if nextWant != len(specs) {
			t.Fatalf("workers=%d: emitted %d points, want %d", workers, nextWant, len(specs))
		}
	}
}

func TestStreamBoundedWindow(t *testing.T) {
	// With the emit callback blocked, workers may claim at most 2×w
	// points (the reorder window) before stalling on tickets; the rest
	// of the grid must stay untouched until emit unblocks. This is the
	// bounded-memory half of the streaming contract.
	const w = 2
	const window = 2 * w
	specs := make([]Spec, 40)
	var started atomic.Int64
	for i := range specs {
		specs[i] = Spec{Protocol: ProtocolEchoBB, N: 7}
		once := new(sync.Once)
		specs[i].OnSend = func(types.Tick, sim.Message, bool) {
			once.Do(func() { started.Add(1) })
		}
	}
	release := make(chan struct{})
	go func() {
		// Wait until the started count stops growing (all workers are
		// stalled on the window), then let the collector proceed.
		prev := int64(-1)
		for {
			time.Sleep(20 * time.Millisecond)
			cur := started.Load()
			if cur == prev {
				break
			}
			prev = cur
		}
		close(release)
	}()
	var peak int64
	err := Pool{Workers: w}.Stream(specs, func(i int, o *Outcome) error {
		if i == 0 {
			<-release
			peak = started.Load()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > window {
		t.Errorf("with emit blocked, %d points started; the window bound is %d", peak, window)
	}
	if got := started.Load(); got != int64(len(specs)) {
		t.Errorf("%d points ran in total, want %d", got, len(specs))
	}
}

func TestStreamPropagatesRunError(t *testing.T) {
	specs := []Spec{
		{Protocol: ProtocolWBA, N: 7},
		{Protocol: ProtocolWBA, N: 0}, // invalid: Run must fail
		{Protocol: ProtocolWBA, N: 7},
	}
	for _, workers := range []int{1, 4} {
		_, err := Pool{Workers: workers}.Run(specs)
		if !errors.Is(err, ErrSpec) {
			t.Errorf("workers=%d: error = %v, want ErrSpec", workers, err)
		}
	}
}

func TestStreamPropagatesEmitError(t *testing.T) {
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Protocol: ProtocolEchoBB, N: 7}
	}
	sentinel := fmt.Errorf("stop after first point")
	for _, workers := range []int{1, 4} {
		calls := 0
		err := Pool{Workers: workers}.Stream(specs, func(i int, o *Outcome) error {
			calls++
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: error = %v, want sentinel", workers, err)
		}
		if calls != 1 {
			t.Errorf("workers=%d: emit called %d times after error, want 1", workers, calls)
		}
	}
}

// TestPoolStatsMatchesSequential pins Pool.Stats to RunStats.
func TestPoolStatsMatchesSequential(t *testing.T) {
	spec := Spec{Protocol: ProtocolWBA, N: 9, F: 3, Fault: FaultReplay}
	seeds := []int64{1, 2, 3, 4, 5}
	ref, err := RunStats(spec, seeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Pool{Workers: 4}.Stats(spec, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("parallel stats differ: got %+v, want %+v", got, ref)
	}
}

// TestPoolConcurrentUse runs several sweeps on one pool value from
// multiple goroutines — Pool must be stateless and reusable.
func TestPoolConcurrentUse(t *testing.T) {
	pool := Pool{Workers: 2}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs, err := pool.Sweep(Spec{Protocol: ProtocolWBA}, []int{7, 9}, []int{0, 1})
			if err == nil && len(outs) != 4 {
				err = fmt.Errorf("got %d outcomes, want 4", len(outs))
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
