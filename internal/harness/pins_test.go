package harness

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"adaptiveba/internal/types"
)

// TestOutcomePins pins every kind's exact Outcome at n=9, f=1 under the
// crash, crash-leader and replay patterns. The rows were recorded before
// the protocol table replaced the harness's per-kind factory; the only
// cells that moved since are bb-via-ba's fallback counts, which the old
// factory never reported.
func TestOutcomePins(t *testing.T) {
	pins := []struct {
		p                 Protocol
		fault             Fault
		words, msgs       int64
		ticks, decisionAt types.Tick
		decision          string
		fallback          int
	}{
		{"bb", "crash", 46, 46, 55, 38, "v", 0},
		{"bb", "crash-leader", 69, 69, 55, 33, "", 0},
		{"bb", "replay", 46, 46, 81, 38, "v", 0},
		{"wba", "crash", 38, 38, 27, 10, "v", 0},
		{"wba", "crash-leader", 38, 38, 27, 5, "v", 0},
		{"wba", "replay", 38, 38, 49, 10, "v", 0},
		{"strongba", "crash", 1558, 598, 16, 16, "\x01", 8},
		{"strongba", "crash-leader", 1544, 584, 16, 16, "\x01", 8},
		{"strongba", "replay", 1558, 598, 28, 16, "\x01", 8},
		{"bb-via-ba", "crash", 1566, 606, 17, 0, "\x01", 8},
		{"bb-via-ba", "crash-leader", 1544, 584, 17, 0, "\x00", 8},
		{"bb-via-ba", "replay", 1566, 606, 32, 0, "\x01", 8},
		{"acs", "crash", 14437, 5797, 96, 96, "sha256:bf7e2a4ae32bbd0b", 8},
		{"acs", "crash-leader", 14509, 5869, 96, 96, "sha256:cc6532c493833db4", 8},
		{"acs", "replay", 14437, 5797, 96, 96, "sha256:bf7e2a4ae32bbd0b", 8},
		{"fallback", "crash", 1472, 512, 5, 0, "v", 0},
		{"fallback", "crash-leader", 1472, 512, 5, 0, "v", 0},
		{"fallback", "replay", 1472, 512, 17, 0, "v", 0},
		{"dolev-strong", "crash", 184, 64, 5, 0, "v", 0},
		{"dolev-strong", "crash-leader", 0, 0, 5, 0, "", 0},
		{"dolev-strong", "replay", 184, 64, 9, 0, "v", 0},
		{"echo-bb", "crash", 72, 72, 3, 0, "v", 0},
		{"echo-bb", "crash-leader", 0, 0, 3, 0, "", 0},
		{"echo-bb", "replay", 72, 72, 11, 0, "v", 0},
		{"floodset", "crash", 256, 256, 4, 2, "v", 0},
		{"floodset", "crash-leader", 256, 256, 4, 2, "v", 0},
		{"floodset", "replay", 272, 272, 11, 3, "v", 0},
		{"committee", "crash", 133, 133, 4, 5, "v", 0},
		{"committee", "crash-leader", 133, 133, 4, 5, "v", 0},
		{"committee", "replay", 133, 133, 15, 5, "v", 0},
	}
	for _, pin := range pins {
		o, err := Run(Spec{Protocol: pin.p, N: 9, F: 1, Fault: pin.fault})
		if err != nil {
			t.Fatalf("%s/%s: %v", pin.p, pin.fault, err)
		}
		got := fmt.Sprintf("%d %d %d %d %q %d", o.Words, o.Messages, o.Ticks, o.DecisionTick, pinDecision(o.Decision), o.FallbackCount)
		want := fmt.Sprintf("%d %d %d %d %q %d", pin.words, pin.msgs, pin.ticks, pin.decisionAt, pin.decision, pin.fallback)
		if got != want {
			t.Errorf("%s/%s: words msgs ticks decided-at decision fallback = %s, pinned %s", pin.p, pin.fault, got, want)
		}
	}
}

// TestLargeBBSteps pins the simulator's work on a failure-free BB at
// n = 4 096: 28 665 words in 22 531 ticks. Stepping every machine at every
// tick made 92 291 072 steps; stepping a machine only with mail or when it
// is due makes about seven per process. The bound is ROADMAP item 25's,
// 10·(n + honest messages).
func TestLargeBBSteps(t *testing.T) {
	const n = 4096
	o, err := Run(Spec{Protocol: ProtocolBB, N: n})
	if err != nil {
		t.Fatal(err)
	}
	if o.Words != 28665 || o.Ticks != 22531 || !o.Decided || !o.Agreement {
		t.Fatalf("words %d, ticks %d, decided %t, agreement %t; pinned 28665, 22531, true, true",
			o.Words, o.Ticks, o.Decided, o.Agreement)
	}
	if bound := 10 * (n + o.Messages); o.Steps > bound {
		t.Errorf("%d steps, bound %d", o.Steps, bound)
	}
	if o.Steps != 28674 {
		t.Errorf("%d steps, pinned 28674", o.Steps)
	}
}

// pinDecision is a decision as its pin spells it: the value itself, or a
// digest prefix of an ACS round's long result frame.
func pinDecision(v types.Value) string {
	if len(v) <= 16 {
		return string(v)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(v))[:23]
}
