package testenv

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRaceMatchesPoolBehaviour cross-checks the build record against what
// it is consulted for: a Put a Get cannot find again. A normal build keeps
// every one (a goroutine migrating between the two calls is the rare
// exception); the race detector drops a quarter.
func TestRaceMatchesPoolBehaviour(t *testing.T) {
	var p sync.Pool
	const pairs = 256
	misses := 0
	for i := 0; i < pairs; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			misses++
		}
	}
	if dropped := misses > pairs/16; dropped != Race() {
		t.Errorf("Race() = %t, but the pool lost %d of %d Puts", Race(), misses, pairs)
	}
}

// fakeT is the testing.TB NoLeaks reports to: it keeps the cleanups for
// the test to run and the errors for it to read.
type fakeT struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (f *fakeT) Helper()                        {}
func (f *fakeT) Cleanup(fn func())              { f.cleanups = append(f.cleanups, fn) }
func (f *fakeT) Errorf(format string, a ...any) { f.errs = append(f.errs, fmt.Sprintf(format, a...)) }

// end runs the cleanups as the testing package does, last first.
func (f *fakeT) end() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// TestNoLeaks checks that the helper passes a test that tears down what
// it started, and flags one that leaves a goroutine or a descriptor open.
func TestNoLeaks(t *testing.T) {
	defer func(w time.Duration) { leakWait = w }(leakWait)
	leakWait = 200 * time.Millisecond // the leaking cases wait it out
	t.Run("clean", func(t *testing.T) {
		f := &fakeT{TB: t}
		NoLeaks(f)
		done := make(chan struct{})
		go func() { <-done }()
		file, err := os.Open(os.Args[0])
		if err != nil {
			t.Fatal(err)
		}
		close(done)
		file.Close()
		f.end()
		if len(f.errs) != 0 {
			t.Errorf("clean test flagged: %v", f.errs)
		}
	})
	t.Run("goroutine", func(t *testing.T) {
		f := &fakeT{TB: t}
		settle()
		NoLeaks(f)
		stop := make(chan struct{})
		go func() { <-stop }()
		f.Cleanup(func() {}) // a later cleanup runs before the check
		f.end()
		close(stop)
		if len(f.errs) != 1 {
			t.Errorf("a blocked goroutine: errors %v, want one", f.errs)
		}
	})
	t.Run("descriptor", func(t *testing.T) {
		if _, ok := openFDs(); !ok {
			t.Skip("no /proc/self/fd")
		}
		f := &fakeT{TB: t}
		settle()
		NoLeaks(f)
		file, err := os.Open(os.Args[0])
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		f.end()
		if len(f.errs) != 1 {
			t.Errorf("an open file: errors %v, want one", f.errs)
		}
	})
}

// settle waits until the goroutine count has held still for ten polls a
// millisecond apart. A leaking case calls it before NoLeaks, so that the
// snapshot holds no goroutine that is still exiting: the previous
// subtest's own, or the one the clean case released. One that exited
// during the check would offset the planted leak and hide it.
func settle() {
	for n, still := runtime.NumGoroutine(), 0; still < 10; time.Sleep(time.Millisecond) {
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
}

// TestProcsRestores checks that nested Procs calls unwind, in the
// testing package's cleanup order, to the value the test started with.
func TestProcsRestores(t *testing.T) {
	start := runtime.GOMAXPROCS(0)
	f := &fakeT{TB: t}
	Procs(f, 1)
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Errorf("GOMAXPROCS = %d after Procs(1)", got)
	}
	Procs(f, 3)
	if got := runtime.GOMAXPROCS(0); got != 3 {
		t.Errorf("GOMAXPROCS = %d after Procs(3)", got)
	}
	f.end()
	if got := runtime.GOMAXPROCS(0); got != start {
		t.Errorf("GOMAXPROCS = %d after the test, want %d restored", got, start)
	}
}
