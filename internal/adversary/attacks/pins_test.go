package attacks_test

import (
	"testing"

	"adaptiveba/internal/testenv/scenarios"
)

// TestWBALeaderPins pins the honest cost and outcome of every weak BA
// leader coalition scenario (scenarios.WBALeaderScenarios): honest
// words, messages, ticks, each correct process's decision and how many
// correct processes ran the fallback. A change to how the coalition is
// built must not move any of them.
func TestWBALeaderPins(t *testing.T) {
	for _, sc := range scenarios.WBALeaderScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			if got := sc.Run(t); got != sc.Want {
				t.Errorf("got %+v, pinned %+v", got, sc.Want)
			}
		})
	}
}
