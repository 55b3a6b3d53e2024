package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
)

// The golden traces in testdata/ pin real protocol stacks under the
// phase-spamming adversary with shuffled delivery: BB (recorded from the
// pre-parallel serial engine) and weak BA. Each pins the full observable
// schedule — honest traffic order, the shuffle permutations, and the
// rushing adversary's replies — through every layer above the engine.
//
// Regenerate with: go test ./internal/harness -run TestGoldenProtocolTrace -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files")

// goldenSpecs are the recorded configurations, keyed by trace file name.
// GOMAXPROCS varies per run; everything else is fixed.
var goldenSpecs = []struct {
	name string
	spec Spec
}{
	{"bb-spam-shuffle", Spec{Protocol: ProtocolBB, N: 9, F: 2, Fault: FaultSpam, ShuffleSeed: 11}},
	{"wba-spam-shuffle", Spec{Protocol: ProtocolWBA, N: 9, F: 4, Fault: FaultSpam, ShuffleSeed: 11}},
}

func TestGoldenProtocolTrace(t *testing.T) {
	for _, g := range goldenSpecs {
		t.Run(g.name, func(t *testing.T) {
			runTrace := func(procs int) []byte {
				testenv.Procs(t, procs)
				var trace bytes.Buffer
				spec := g.spec
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
			path := filepath.Join("testdata", g.name+".trace")
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
				t.Error("GOMAXPROCS=1 trace diverged from the recorded golden")
			}
			for _, procs := range []int{0, 2, 8} {
				if !bytes.Equal(runTrace(procs), want) {
					t.Errorf("GOMAXPROCS=%d trace diverged from the GOMAXPROCS=1 golden", procs)
				}
			}
		})
	}
}
