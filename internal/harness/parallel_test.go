package harness

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
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
		cells, err := Grid(Spec{Protocol: ProtocolBB}, []int{7, 11, 15}, []int{0, 1, 3, 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range cells {
			for r := int64(0); r < 2; r++ {
				s.Seed = DeriveSeed(0, int64(s.N), int64(s.F), r)
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// TestParallelDeterminism is the runner's core guarantee: the same grid
// run sequentially and at several worker counts yields identical
// per-point metrics, decisions, and CSV bytes.
func TestParallelDeterminism(t *testing.T) {
	specs := determinismGrid(t)
	ref, err := Pool{Workers: 1}.Run(specs)
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
	ref, err := e.Run(Pool{Workers: 1})
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
		specs, err := Grid(Spec{Protocol: ProtocolBB}, []int{7, 11}, []int{0, 3, 5})
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
	t.Run("custom resilience", func(t *testing.T) {
		specs, err := Grid(Spec{Protocol: ProtocolBB, T: 2}, []int{11}, []int{0, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		// t is pinned at 2, so f=3 is infeasible even though n=11.
		if len(specs) != 2 {
			t.Fatalf("got %d specs, want 2 (f=3 must be skipped at t=2)", len(specs))
		}
	})
	t.Run("rejects bad n", func(t *testing.T) {
		if _, err := Grid(Spec{Protocol: ProtocolBB}, []int{2}, []int{0}); err == nil {
			t.Error("Grid accepted n=2")
		}
	})
}

// TestStreamPropagatesRunError: a failed point fails the whole run, and
// the error reported is the lowest failed point's at every worker count.
func TestStreamPropagatesRunError(t *testing.T) {
	specs := []Spec{
		{Protocol: ProtocolWBA, N: 7},
		{Protocol: ProtocolWBA, N: 0}, // invalid: Run must fail
		{Protocol: ProtocolWBA, N: 7},
		{Protocol: ProtocolWBA, N: 1}, // invalid too, but later
	}
	for _, workers := range []int{1, 4} {
		_, err := Pool{Workers: workers}.Run(specs)
		if !errors.Is(err, ErrSpec) {
			t.Errorf("workers=%d: error = %v, want ErrSpec", workers, err)
		}
		if err == nil || !strings.HasPrefix(err.Error(), "point 1 ") {
			t.Errorf("workers=%d: error = %v, want point 1's", workers, err)
		}
	}
}

// TestPoolStatsMatchesSequential pins Pool.Stats to its sequential run.
func TestPoolStatsMatchesSequential(t *testing.T) {
	spec := Spec{Protocol: ProtocolWBA, N: 9, F: 3, Fault: FaultReplay}
	seeds := []int64{1, 2, 3, 4, 5}
	ref, err := Pool{Workers: 1}.Stats(spec, seeds)
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
