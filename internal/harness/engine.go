package harness

import (
	"fmt"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/types"
)

// RunEngine executes `sessions` copies of spec's protocol as one
// multi-session engine run: all instances share a single deployment (one
// process set, one failure pattern, one signature ring) and are
// pipelined through the engine's admission window. inflight bounds the
// concurrently live sessions (0 = unbounded, 1 = strictly serial).
//
// The engine schedules sessions so that each one's schedule is
// tick-for-tick the schedule a solo Run of the same spec would produce —
// per-session decisions, words, and messages are byte-identical to
// serial execution, which TestRunEngineMatchesSolo pins.
func RunEngine(spec Spec, sessions, inflight int) (*engine.Report, error) {
	if sessions < 1 {
		return nil, fmt.Errorf("%w: need at least one session, got %d", ErrSpec, sessions)
	}
	// Run's defaults, so input sees the spec a solo run would.
	spec = spec.withDefaults()
	switch spec.Fault {
	case FaultCrash, FaultCrashLeader:
	default:
		return nil, fmt.Errorf("%w: engine supports crash fault patterns, got %q", ErrSpec, spec.Fault)
	}

	// Materialize the spec's input policy exactly as a solo Run would
	// assign it.
	req := engine.Request{Kind: spec.Protocol}
	r := &runner{spec: spec}
	for id := 0; id < spec.N; id++ {
		req.Inputs = append(req.Inputs, r.input(types.ProcessID(id)))
	}
	reqs := make([]engine.Request, sessions)
	for i := range reqs {
		reqs[i] = req
	}

	return engine.Run(engine.Config{
		N:           spec.N,
		T:           spec.T,
		F:           spec.F,
		Adversary:   adversary.ForPattern(string(spec.Fault), spec.F, spec.Seed),
		Inflight:    inflight,
		Seed:        spec.Seed,
		Ed25519:     spec.Ed25519,
		OnSend:      spec.OnSend,
		TickWorkers: spec.TickWorkers,
	}, reqs)
}
