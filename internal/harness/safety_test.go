package harness

import (
	"fmt"
	"testing"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/types"
)

// TestSafetySweep is the X-SAFE gate from DESIGN.md §3: agreement,
// termination, and the protocol-specific validity property must hold for
// every protocol under every fault pattern of the pattern table, fault
// count, and seed in the matrix. Any violation here invalidates every
// measured number.
func TestSafetySweep(t *testing.T) {
	protocols := []Protocol{ProtocolBB, ProtocolWBA, ProtocolStrongBA}
	for _, p := range protocols {
		for _, pattern := range attacks.Patterns {
			fault := Fault(pattern.Name)
			for _, n := range []int{3, 5, 9} {
				params, err := types.NewParams(n)
				if err != nil {
					t.Fatal(err)
				}
				for f := 0; f <= params.T; f++ {
					for seed := int64(1); seed <= 2; seed++ {
						name := fmt.Sprintf("%s/%s/n=%d/f=%d/seed=%d", p, fault, n, f, seed)
						o, err := Run(Spec{Protocol: p, N: n, F: f, Fault: fault, Seed: seed, Monitor: true})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !o.Decided {
							t.Errorf("%s: termination violated", name)
						}
						if !o.Agreement {
							t.Errorf("%s: agreement violated", name)
						}
						if len(o.InvariantViolations) > 0 {
							t.Errorf("%s: oracle violations: %v", name, o.InvariantViolations)
						}
						checkValidity(t, name, o)
					}
				}
			}
		}
	}
}

// checkValidity asserts the protocol-specific validity property.
func checkValidity(t *testing.T, name string, o *Outcome) {
	t.Helper()
	switch o.Spec.Protocol {
	case ProtocolBB:
		// Sender is p0. With FaultCrashLeader and f >= 1 the sender is
		// corrupted: any common value (incl. ⊥) is fine. Otherwise the
		// decision must be the sender's value.
		senderCorrupt := o.Spec.Fault == FaultCrashLeader && o.Spec.F >= 1
		if !senderCorrupt && !o.Decision.Equal(types.Value("v")) {
			t.Errorf("%s: BB validity violated, decided %v", name, o.Decision)
		}
	case ProtocolWBA:
		// Unanimous correct inputs "v". The spam adversary proposes the
		// same valid value; replayers resend real messages. In every
		// pattern only "v" exists as a valid value, so unique validity
		// forces the decision to "v" (⊥ would require a second valid
		// value in the run).
		if !o.Decision.Equal(types.Value("v")) {
			t.Errorf("%s: unique validity violated, decided %v", name, o.Decision)
		}
	case ProtocolStrongBA:
		// Unanimous correct inputs 1: strong unanimity forces 1.
		if !o.Decision.Equal(types.One) {
			t.Errorf("%s: strong unanimity violated, decided %v", name, o.Decision)
		}
	}
}

// TestSafetySweepDistinctInputs repeats the sweep with per-process
// distinct inputs, where only agreement/termination (and binary-ness for
// strong BA) are required.
func TestSafetySweepDistinctInputs(t *testing.T) {
	for _, p := range []Protocol{ProtocolWBA, ProtocolStrongBA, ProtocolFallback} {
		for _, f := range []int{0, 2, 4} {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%s/f=%d/seed=%d", p, f, seed)
				o, err := Run(Spec{Protocol: p, N: 9, F: f, Inputs: InputsDistinct, Fault: FaultReplay, Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !o.Decided || !o.Agreement {
					t.Errorf("%s: decided=%v agreement=%v", name, o.Decided, o.Agreement)
				}
				if p == ProtocolStrongBA && !o.Decision.IsBinary() && !o.Decision.IsBottom() {
					t.Errorf("%s: non-binary decision %v", name, o.Decision)
				}
			}
		}
	}
}

// TestDeliveryOrderInsensitivity reruns the protocols under adversarial
// per-tick delivery permutations: the decision must not depend on the
// order messages arrive within a round.
func TestDeliveryOrderInsensitivity(t *testing.T) {
	for _, p := range []Protocol{ProtocolBB, ProtocolWBA, ProtocolStrongBA} {
		var baseline types.Value
		for seed := int64(0); seed <= 5; seed++ {
			o, err := Run(Spec{Protocol: p, N: 9, F: 3, ShuffleSeed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", p, seed, err)
			}
			if !o.Decided || !o.Agreement {
				t.Fatalf("%s seed=%d: decided=%v agreement=%v", p, seed, o.Decided, o.Agreement)
			}
			if seed == 0 {
				baseline = o.Decision
				continue
			}
			if !o.Decision.Equal(baseline) {
				t.Errorf("%s seed=%d: decision %v differs from natural-order %v",
					p, seed, o.Decision, baseline)
			}
		}
	}
}
