package testenv

import (
	"sync"
	"testing"
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
