package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

func TestRunEveryProtocolFailureFree(t *testing.T) {
	for _, p := range protocols.Kinds() {
		t.Run(string(p), func(t *testing.T) {
			o, err := Run(Spec{Protocol: p, N: 5})
			if err != nil {
				t.Fatal(err)
			}
			if !o.Decided || !o.Agreement {
				t.Fatalf("decided=%v agreement=%v", o.Decided, o.Agreement)
			}
			if o.Words <= 0 || o.Messages <= 0 {
				t.Errorf("words=%d messages=%d", o.Words, o.Messages)
			}
		})
	}
}

func TestRunWithCrashes(t *testing.T) {
	for _, p := range []Protocol{ProtocolBB, ProtocolWBA, ProtocolStrongBA} {
		t.Run(string(p), func(t *testing.T) {
			o, err := Run(Spec{Protocol: p, N: 9, F: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !o.Decided || !o.Agreement {
				t.Fatalf("decided=%v agreement=%v", o.Decided, o.Agreement)
			}
		})
	}
}

func TestAdaptiveVsBaselineShape(t *testing.T) {
	// At f=0, the adaptive BB must cost O(n) vs the quadratic baselines.
	n := 41
	adaptive, err := Run(Spec{Protocol: ProtocolBB, N: n})
	if err != nil {
		t.Fatal(err)
	}
	echo, err := Run(Spec{Protocol: ProtocolEchoBB, N: n})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Run(Spec{Protocol: ProtocolDolevStrong, N: n})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Words*3 >= echo.Words {
		t.Errorf("adaptive %d vs echo %d: no clear win at f=0", adaptive.Words, echo.Words)
	}
	if adaptive.Words*3 >= ds.Words {
		t.Errorf("adaptive %d vs dolev-strong %d: no clear win at f=0", adaptive.Words, ds.Words)
	}
}

func TestFallbackCountReported(t *testing.T) {
	// n=9 t=4 quorum=7: f=3 crashes starve the quorum; all 6 honest
	// processes must run the fallback.
	o, err := Run(Spec{Protocol: ProtocolWBA, N: 9, F: 3})
	if err != nil {
		t.Fatal(err)
	}
	if o.FallbackCount != 6 {
		t.Errorf("FallbackCount = %d, want 6", o.FallbackCount)
	}
	// f=1 stays on the fast path.
	o, err = Run(Spec{Protocol: ProtocolWBA, N: 9, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.FallbackCount != 0 {
		t.Errorf("FallbackCount = %d, want 0", o.FallbackCount)
	}
	// bb-via-ba's strong BA falls back at its first crash (its layers
	// carry the fallback's words); all 8 honest processes must be counted.
	o, err = Run(Spec{Protocol: ProtocolBBViaBA, N: 9, F: 1, Value: types.One})
	if err != nil {
		t.Fatal(err)
	}
	if o.FallbackCount != 8 {
		t.Errorf("bb-via-ba FallbackCount = %d, want 8", o.FallbackCount)
	}
}

// TestBytesCoverEveryLayer runs every kind of the protocol table: a
// layer that carried words must have carried bytes, or the registry is
// missing a codec.
func TestBytesCoverEveryLayer(t *testing.T) {
	for _, p := range protocols.Kinds() {
		if p == ProtocolFloodSet || p == ProtocolCommittee {
			continue // simulator-only: no wire codecs
		}
		o, err := Run(Spec{Protocol: p, N: 9, F: 1})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for layer, st := range o.ByLayer {
			if st.Words > 0 && st.Bytes <= 0 {
				t.Errorf("%s layer %s: %d words, %d bytes", p, layer, st.Words, st.Bytes)
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(Spec{Protocol: ProtocolBB, N: 2}); !errors.Is(err, ErrSpec) {
		t.Errorf("n too small: %v", err)
	}
	if _, err := Run(Spec{Protocol: ProtocolBB, N: 5, F: 3}); !errors.Is(err, ErrSpec) {
		t.Errorf("f > t: %v", err)
	}
	if _, err := Run(Spec{Protocol: "nope", N: 5}); !errors.Is(err, ErrSpec) {
		t.Errorf("unknown protocol: %v", err)
	}
	// A misspelled fault or input policy is an error, not a silent crash
	// or unanimous run.
	for _, spec := range []Spec{
		{Protocol: ProtocolBB, N: 9, F: 2, Fault: "bogus"},
		{Protocol: ProtocolBB, N: 9, F: 0, Fault: "spma"},
		{Protocol: ProtocolWBA, N: 9, Inputs: "distnct"},
	} {
		if _, err := Run(spec); !errors.Is(err, ErrSpec) {
			t.Errorf("fault %q inputs %q: err = %v, want ErrSpec", spec.Fault, spec.Inputs, err)
		}
	}
}

// TestSpamFaultCapsF: the phase-spam genome addresses processes by byte,
// so a spam run corrupting more than 255 processes is rejected before
// it runs.
func TestSpamFaultCapsF(t *testing.T) {
	if _, err := Run(Spec{Protocol: ProtocolBB, N: 513, F: 256, Fault: FaultSpam}); !errors.Is(err, ErrSpec) {
		t.Errorf("bb spam f=256: err = %v, want ErrSpec", err)
	}
}

func TestCrashLeaderFault(t *testing.T) {
	o, err := Run(Spec{Protocol: ProtocolBB, N: 9, F: 1, Fault: FaultCrashLeader})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Decided || !o.Agreement {
		t.Fatal("run failed")
	}
	// The sender (p0) crashed: decision must be ⊥.
	if !o.Decision.IsBottom() {
		t.Errorf("decision %v, want ⊥", o.Decision)
	}
}

func TestReplayFault(t *testing.T) {
	o, err := Run(Spec{Protocol: ProtocolWBA, N: 9, F: 2, Fault: FaultReplay, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Decided || !o.Agreement {
		t.Fatal("replay run failed")
	}
}

func TestDistinctInputs(t *testing.T) {
	o, err := Run(Spec{Protocol: ProtocolWBA, N: 7, Inputs: InputsDistinct})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Agreement || o.Decision.IsBottom() {
		t.Errorf("agreement=%v decision=%v", o.Agreement, o.Decision)
	}
	o, err = Run(Spec{Protocol: ProtocolStrongBA, N: 7, Inputs: InputsDistinct})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Agreement {
		t.Error("binary split inputs broke agreement")
	}
}

func TestEd25519Spec(t *testing.T) {
	o, err := Run(Spec{Protocol: ProtocolStrongBA, N: 5, Ed25519: true})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Decided || !o.Agreement {
		t.Fatal("ed25519 run failed")
	}
}

func TestSweepAndTable(t *testing.T) {
	outcomes, err := Sweep(Spec{Protocol: ProtocolWBA}, []int{5, 9}, []int{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	// f=4 is infeasible at n=5 (t=2) and n=9 (t=4 allows it).
	if len(outcomes) != 5 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	table := Table(outcomes)
	if !strings.Contains(table, "wba") || !strings.Contains(table, "words") {
		t.Errorf("table:\n%s", table)
	}
	for _, o := range outcomes {
		if !o.Agreement {
			t.Errorf("n=%d f=%d: agreement violated", o.Spec.N, o.Spec.F)
		}
	}
}

func TestByLayerBreakdown(t *testing.T) {
	o, err := Run(Spec{Protocol: ProtocolBB, N: 9, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	sawWBA := false
	for layer := range o.ByLayer {
		if strings.Contains(layer, "wba") {
			sawWBA = true
		}
	}
	if !sawWBA {
		t.Errorf("layer breakdown missing wba: %v", o.ByLayer)
	}
}

func TestDeterministicOutcome(t *testing.T) {
	run := func() *Outcome {
		o, err := Run(Spec{Protocol: ProtocolBB, N: 9, F: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	a, b := run(), run()
	if a.Words != b.Words || a.Ticks != b.Ticks || !a.Decision.Equal(b.Decision) {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestOutcomeDecisionValue(t *testing.T) {
	o, err := Run(Spec{Protocol: ProtocolBB, N: 5, Value: types.Value("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Decision.Equal(types.Value("hello")) {
		t.Errorf("decision %v", o.Decision)
	}
}

func TestDolevReischukSignatureAnnotation(t *testing.T) {
	// Table 1's "(Ω(n²) signatures)" note: at f=0 the adaptive BB ships
	// Θ(n²) component signatures inside Θ(n) words.
	for _, n := range []int{11, 41} {
		o, err := Run(Spec{Protocol: ProtocolBB, N: n})
		if err != nil {
			t.Fatal(err)
		}
		sigsPerN2 := float64(o.Signatures) / float64(n*n)
		wordsPerN := float64(o.Words) / float64(n)
		if sigsPerN2 < 1 || sigsPerN2 > 4 {
			t.Errorf("n=%d: sigs/n² = %.2f, want ~2", n, sigsPerN2)
		}
		if wordsPerN < 3 || wordsPerN > 12 {
			t.Errorf("n=%d: words/n = %.2f, want ~7", n, wordsPerN)
		}
	}
}

func TestAllExperimentsRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range Experiments() {
		// The heavyweight sweeps are exercised by the bench CLI; here we
		// only check the cheap ones end to end.
		switch e.ID {
		case "ablate-quorum", "ablate-cert", "dr-sigs":
			report, err := e.Run()
			if err != nil {
				t.Errorf("%s: %v", e.ID, err)
			}
			if len(report) == 0 {
				t.Errorf("%s: empty report", e.ID)
			}
		}
	}
	if _, ok := ExperimentByID("t1-bb"); !ok {
		t.Error("t1-bb not registered")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("phantom experiment found")
	}
}

func TestCustomResilience(t *testing.T) {
	// Section 8: any n >= 2t+1 works. Fix t=3, run at n=7, 10, 13 with
	// f = t crashes; validity must hold every time.
	for _, n := range []int{7, 10, 13} {
		for _, p := range []Protocol{ProtocolBB, ProtocolWBA} {
			o, err := Run(Spec{Protocol: p, N: n, T: 3, F: 3})
			if err != nil {
				t.Fatalf("%s n=%d: %v", p, n, err)
			}
			if !o.Decided || !o.Agreement {
				t.Errorf("%s n=%d t=3 f=3: decided=%v agreement=%v", p, n, o.Decided, o.Agreement)
			}
			if !o.Decision.Equal(types.Value("v")) {
				t.Errorf("%s n=%d: decision %v", p, n, o.Decision)
			}
		}
	}
	// Invalid overrides are rejected.
	if _, err := Run(Spec{Protocol: ProtocolBB, N: 7, T: 4}); !errors.Is(err, ErrSpec) {
		t.Errorf("n < 2t+1 accepted: %v", err)
	}
	if _, err := Run(Spec{Protocol: ProtocolBB, N: 7, T: -1}); !errors.Is(err, ErrSpec) {
		t.Errorf("negative t accepted: %v", err)
	}
}

func TestBBViaBAProtocol(t *testing.T) {
	// Correct sender: the reduction decides the sender's bit at O(n)
	// words when failure-free.
	o, err := Run(Spec{Protocol: ProtocolBBViaBA, N: 21, Value: types.One})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Decided || !o.Agreement || !o.Decision.Equal(types.One) {
		t.Fatalf("outcome: %+v", o)
	}
	if o.Words > int64(8*21) {
		t.Errorf("f=0 words = %d, want O(n)", o.Words)
	}
	// One crash: the reduction degrades to quadratic while the adaptive
	// BB stays linear — the Section 5 motivation for building weak BA.
	red, err := Run(Spec{Protocol: ProtocolBBViaBA, N: 21, F: 1, Value: types.One})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Run(Spec{Protocol: ProtocolBB, N: 21, F: 1, Value: types.One})
	if err != nil {
		t.Fatal(err)
	}
	if red.Words <= ad.Words*4 {
		t.Errorf("reduction (%d words) should be ≫ adaptive BB (%d words) at f=1", red.Words, ad.Words)
	}
}

func TestCountOps(t *testing.T) {
	o, err := Run(Spec{Protocol: ProtocolBB, N: 9, CountOps: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.SignOps <= 0 || o.VerifyOps <= 0 {
		t.Errorf("ops not counted: sign=%d verify=%d", o.SignOps, o.VerifyOps)
	}
	// Verification dominates signing in threshold-certified protocols:
	// every recipient checks certificates with many component signatures.
	if o.VerifyOps < o.SignOps {
		t.Errorf("expected verify-heavy workload: sign=%d verify=%d", o.SignOps, o.VerifyOps)
	}
	// A counting run has no cache, so the demand does not depend on the
	// scheme: real signatures, which the cache would otherwise memoize,
	// are verified exactly as often as the HMAC ring.
	ed, err := Run(Spec{Protocol: ProtocolBB, N: 9, CountOps: true, Ed25519: true})
	if err != nil {
		t.Fatal(err)
	}
	if ed.SignOps != o.SignOps || ed.VerifyOps != o.VerifyOps {
		t.Errorf("Ed25519 demand %d/%d, HMAC demand %d/%d", ed.SignOps, ed.VerifyOps, o.SignOps, o.VerifyOps)
	}
	for _, c := range []*Outcome{o, ed} {
		if c.CacheHits != 0 || c.CacheMisses != 0 {
			t.Errorf("counting run reported cache stats: hits=%d misses=%d", c.CacheHits, c.CacheMisses)
		}
	}
	// Without CountOps the fields stay zero, and the cache that memoizes
	// real signatures surfaces its counters.
	cached, err := Run(Spec{Protocol: ProtocolBB, N: 9, Ed25519: true})
	if err != nil {
		t.Fatal(err)
	}
	if cached.SignOps != 0 || cached.VerifyOps != 0 {
		t.Error("ops counted without CountOps")
	}
	if cached.CacheHits <= 0 || cached.CacheMisses <= 0 {
		t.Errorf("cache counters not surfaced: hits=%d misses=%d", cached.CacheHits, cached.CacheMisses)
	}
}

// TestCountOpsCountsInherentDemand: CountOps alone measures what -exp
// crypto-ops reports, the protocol's inherent verification demand. A BB
// run at n = 21 with aggregate certificates, where every recipient
// re-verifies each component signature, counts the 945 verifications of
// that experiment's bb(aggregate) row (EXPERIMENTS.md X-OPS) — none of
// them answered by the certificate cache. The weak and strong BA rows
// count one check per share, made where the share arrives (21 votes and
// 21 decides, 21 inputs and 21 decide shares): a leader mints its
// certificates from the shares it checked then, so none is checked
// twice. An ACS round pins the same rule for the stack every service
// flush runs.
func TestCountOpsCountsInherentDemand(t *testing.T) {
	o, err := Run(Spec{Protocol: ProtocolBB, N: 21, CountOps: true, CertMode: threshold.ModeAggregate})
	if err != nil {
		t.Fatal(err)
	}
	if o.SignOps != 43 || o.VerifyOps != 945 {
		t.Errorf("CountOps counted %d signs / %d verifies, want crypto-ops' 43 / 945", o.SignOps, o.VerifyOps)
	}
	e, ok := ExperimentByID("crypto-ops")
	if !ok {
		t.Fatal("no crypto-ops experiment")
	}
	report, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := []string{
		fmt.Sprintf("%-14s %4d %10d %12d %10d\n", "bb(aggregate)", 0, o.SignOps, o.VerifyOps, o.Words),
		fmt.Sprintf("%-14s %4d %10d %12d %10d\n", ProtocolWBA, 0, 42, 42, 100),
		fmt.Sprintf("%-14s %4d %10d %12d %10d\n", ProtocolStrongBA, 0, 42, 42, 80),
	}
	for _, row := range rows {
		if !strings.Contains(report, row) {
			t.Errorf("crypto-ops has no row %q:\n%s", row, report)
		}
	}
	for _, c := range []struct {
		n               int
		signs, verifies int64
	}{{4, 68, 80}, {9, 333, 405}} {
		o, err := Run(Spec{Protocol: ProtocolACS, N: c.n, CountOps: true})
		if err != nil {
			t.Fatal(err)
		}
		if o.SignOps != c.signs || o.VerifyOps != c.verifies {
			t.Errorf("acs n=%d: CountOps counted %d signs / %d verifies, want %d / %d",
				c.n, o.SignOps, o.VerifyOps, c.signs, c.verifies)
		}
	}
}

func TestRunStats(t *testing.T) {
	st, err := Repeat(Spec{Protocol: ProtocolWBA, N: 9, F: 2, Fault: FaultReplay}, []int64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 5 || st.Violations != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Words.Min > st.Words.Median || st.Words.Median > st.Words.Max || st.Words.Min <= 0 {
		t.Errorf("word ordering: %+v", st.Words)
	}
	if _, err := Repeat(Spec{Protocol: ProtocolWBA, N: 9}, nil); !errors.Is(err, ErrSpec) {
		t.Errorf("no seeds: %v", err)
	}
}
