// Package testenv tells a test what kind of binary it is running in.
package testenv

import "runtime/debug"

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
