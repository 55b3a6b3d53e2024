package harness

import (
	"errors"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// TestRunEngineMatchesSolo pins the engine's determinism contract at the
// harness level: every session of a pipelined multi-session run must
// reproduce a solo Run of the same spec byte for byte — same decision,
// same agreement, same word/message counts, same fallback behavior, and
// same decision latency — at every window size.
func TestRunEngineMatchesSolo(t *testing.T) {
	var specs []Spec
	for _, kind := range protocols.Kinds() {
		specs = append(specs,
			Spec{Protocol: kind, N: 5, Value: types.Value("pin"), Inputs: InputsDistinct},
			Spec{Protocol: kind, N: 5, F: 1, Fault: FaultCrash, Value: types.Value("pin")},
			Spec{Protocol: kind, N: 5, F: 2, Fault: FaultCrashLeader, Inputs: InputsDistinct},
		)
	}
	const sessions = 6
	for _, spec := range specs {
		spec := spec
		solo, err := Run(spec)
		if err != nil {
			t.Fatalf("%s f=%d: solo run: %v", spec.Protocol, spec.F, err)
		}
		var fingerprint string
		for _, inflight := range []int{1, 3, sessions} {
			rep, err := RunEngine(spec, sessions, inflight)
			if err != nil {
				t.Fatalf("%s f=%d W=%d: %v", spec.Protocol, spec.F, inflight, err)
			}
			if rep.Metrics.EngineLate != 0 {
				t.Errorf("%s f=%d W=%d: %d late messages", spec.Protocol, spec.F, inflight, rep.Metrics.EngineLate)
			}
			if fp := rep.Fingerprint(); inflight == 1 {
				fingerprint = fp
			} else if fp != fingerprint {
				t.Errorf("%s f=%d W=%d: fingerprint diverged from serial:\n%s\nvs\n%s",
					spec.Protocol, spec.F, inflight, fp, fingerprint)
			}
			for _, s := range rep.Sessions {
				if !s.Decision.Equal(solo.Decision) {
					t.Errorf("%s f=%d W=%d %s: decided %v, solo %v",
						spec.Protocol, spec.F, inflight, s.Name, s.Decision, solo.Decision)
				}
				if s.Agreement != solo.Agreement || s.AllDecided != solo.Decided {
					t.Errorf("%s f=%d W=%d %s: agreement=%t decided=%t, solo %t/%t",
						spec.Protocol, spec.F, inflight, s.Name, s.Agreement, s.AllDecided, solo.Agreement, solo.Decided)
				}
				if s.Words != solo.Words || s.Messages != solo.Messages {
					t.Errorf("%s f=%d W=%d %s: words/msgs %d/%d, solo %d/%d",
						spec.Protocol, spec.F, inflight, s.Name, s.Words, s.Messages, solo.Words, solo.Messages)
				}
				if s.FallbackProcs != solo.FallbackCount {
					t.Errorf("%s f=%d W=%d %s: fallback procs %d, solo %d",
						spec.Protocol, spec.F, inflight, s.Name, s.FallbackProcs, solo.FallbackCount)
				}
				if got := s.DecisionTick - s.Start; got != solo.DecisionTick {
					t.Errorf("%s f=%d W=%d %s: decision latency %d, solo %d",
						spec.Protocol, spec.F, inflight, s.Name, got, solo.DecisionTick)
				}
			}
		}
	}
}

// TestRunEngineRejectsUnsupportedSpecs keeps the engine's scope honest:
// fault patterns outside its determinism argument, and an adversary built
// for a solo run, are refused up front rather than silently approximated.
func TestRunEngineRejectsUnsupportedSpecs(t *testing.T) {
	if _, err := RunEngine(Spec{Protocol: ProtocolBB, N: 5, F: 1, Fault: FaultReplay}, 2, 0); err == nil {
		t.Error("replay fault accepted")
	}
	if _, err := RunEngine(Spec{Protocol: ProtocolBB, N: 5}, 0, 0); err == nil {
		t.Error("zero sessions accepted")
	}
	explored := Spec{Protocol: ProtocolBB, N: 5, F: 1, Adversary: func(types.Tick) sim.Adversary { return adversary.NewCrash(1) }}
	if _, err := RunEngine(explored, 2, 0); !errors.Is(err, ErrSpec) {
		t.Errorf("Spec.Adversary: err %v, want ErrSpec", err)
	}
}
