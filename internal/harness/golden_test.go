package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"adaptiveba/internal/sim"
)

// The golden trace in testdata/ was recorded from the pre-parallel
// serial engine on a real protocol stack: BB under the phase-spamming
// adversary with shuffled delivery. It pins the full observable
// schedule — honest traffic order, the shuffle permutations, and the
// rushing adversary's replies — through every layer above the engine.
//
// Regenerate with: go test ./internal/harness -run TestGoldenProtocolTrace -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files")

// goldenSpec is the recorded configuration. TickWorkers varies per run;
// everything else is fixed.
func goldenSpec(tickWorkers int) Spec {
	return Spec{
		Protocol:    ProtocolBB,
		N:           9,
		F:           2,
		Fault:       FaultSpam,
		ShuffleSeed: 11,
		TickWorkers: tickWorkers,
	}
}

func TestGoldenProtocolTrace(t *testing.T) {
	runTrace := func(tickWorkers int) []byte {
		var trace bytes.Buffer
		spec := goldenSpec(tickWorkers)
		spec.OnSend = sim.TraceTo(&trace)
		o, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Decided || !o.Agreement {
			t.Fatalf("golden run incorrect: decided=%v agreement=%v", o.Decided, o.Agreement)
		}
		return trace.Bytes()
	}
	got := runTrace(1)
	path := filepath.Join("testdata", "bb-spam-shuffle.trace")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("tick-workers=1 trace diverged from the recorded serial engine")
	}
	for _, w := range []int{0, 2, 8} {
		if !bytes.Equal(runTrace(w), want) {
			t.Errorf("tick-workers=%d trace diverged from serial golden", w)
		}
	}
}
