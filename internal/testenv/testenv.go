// Package testenv tells a test what kind of binary it is running in, and
// what the test left running when it ended.
package testenv

import (
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// Race reports whether the binary was built with the race detector. Under
// it sync.Pool drops one Put in four on purpose, so whatever a test counts
// on finding in a pool — a routing arena, a wire writer, a hasher — is
// re-made at random: an allocation guard on a pooled path must run with a
// bound that prices those refills in, not skip. The answer is the
// toolchain's own record of the build, not a probe of the pool.
func Race() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// leakWait bounds how long NoLeaks waits for goroutines and descriptors to
// wind down: a closed connection's reader returns, and its socket is
// released, a moment after the Close that ends a run.
var leakWait = 5 * time.Second

// NoLeaks checks, when the test and its later-registered cleanups end,
// that the goroutine count is back at most at its value now, and that no
// more file descriptors are open under /proc/self/fd than now. Both may
// take up to leakWait to settle. The descriptor half is skipped where
// /proc is absent. Call it first in the test, before anything the test
// starts; the counts are process-wide, so it must not be used in a
// parallel test.
func NoLeaks(t testing.TB) {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	fds, fdsOK := openFDs()
	t.Cleanup(func() {
		var g int
		var now []string
		for deadline := time.Now().Add(leakWait); ; time.Sleep(10 * time.Millisecond) {
			g = runtime.NumGoroutine()
			if fdsOK {
				now, _ = openFDs()
			}
			if (g <= goroutines && len(now) <= len(fds)) || time.Now().After(deadline) {
				break
			}
		}
		if g > goroutines {
			t.Errorf("goroutines leaked: %d at start, still %d after waiting %v", goroutines, g, leakWait)
		}
		if len(now) > len(fds) {
			t.Errorf("file descriptors leaked: %d open at start, still %d after waiting %v; new: %v",
				len(fds), len(now), leakWait, added(fds, now))
		}
	})
}

// openFDs lists what this process's open descriptors point at, leaving
// out the runtime's network poller, which the first network call of a
// process opens and keeps for good. ok is false where /proc is absent.
func openFDs() (targets []string, ok bool) {
	const dir = "/proc/self/fd/"
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, false
	}
	for _, e := range entries {
		target, err := os.Readlink(dir + e.Name())
		if err != nil {
			continue // closed since the listing: the listing's own descriptor
		}
		if target == "anon_inode:[eventpoll]" || target == "anon_inode:[eventfd]" {
			continue
		}
		targets = append(targets, target)
	}
	return targets, true
}

// added returns the entries of now that before does not have, counting
// repeats.
func added(before, now []string) []string {
	left := slices.Clone(before)
	var out []string
	for _, x := range now {
		if i := slices.Index(left, x); i >= 0 {
			left = slices.Delete(left, i, i+1)
		} else {
			out = append(out, x)
		}
	}
	return out
}
