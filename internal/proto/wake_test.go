package proto_test

import (
	"sync"
	"testing"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/testenv/scenarios"
)

// TestWakesAreExact is the proof that stepping a machine only when it has
// mail or is due changes nothing. Every scenario of the equivalence
// corpus (internal/testenv/scenarios) runs under the exactness check,
// which steps every machine at every tick (roots included) and fails on
// any step before a machine's wake, with an empty inbox, that sends
// something or changes its wake, Done or Output. The run must give the
// corpus's committed line, but for its steps. -short keeps one corner of
// each grid.
func TestWakesAreExact(t *testing.T) {
	committed := scenarios.Committed()
	var scs []scenarios.Scenario
	for _, sc := range scenarios.Corpus() {
		if sc.Short || !testing.Short() {
			scs = append(scs, sc)
		}
	}
	scenarios.Each(t, scs, func(t *testing.T, sc scenarios.Scenario) {
		var mu sync.Mutex
		var failures []string
		proto.CheckAsleep(t, func(err error) {
			mu.Lock()
			defer mu.Unlock()
			failures = append(failures, err.Error())
		})
		got := sc.Line(t)
		if len(failures) > 0 {
			t.Errorf("%d steps before a machine's wake acted; first: %s", len(failures), failures[0])
		}
		if want := committed[sc.Name]; scenarios.ExceptSteps(got) != scenarios.ExceptSteps(want) {
			t.Errorf("stepping every machine at every tick changed the run:\n got %s\nwant %s", got, want)
		}
	})
}
