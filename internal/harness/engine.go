package harness

import (
	"fmt"

	"adaptiveba/internal/engine"
	"adaptiveba/internal/types"
)

// RunEngine executes `sessions` copies of spec's protocol as one
// multi-session engine run: all instances share a single deployment (one
// process set, one failure pattern, one signature ring) and are
// pipelined through the engine's admission window. inflight bounds the
// concurrently live sessions (0 = unbounded, 1 = strictly serial) and
// maxQueue is the engine's queue policy (see engine.Config.MaxQueue).
//
// The engine schedules sessions so that each one's schedule is
// tick-for-tick the schedule a solo Run of the same spec would produce —
// per-session decisions, words, and messages are byte-identical to
// serial execution, which TestRunEngineMatchesSolo pins.
func RunEngine(spec Spec, sessions, inflight, maxQueue int) (*engine.Report, error) {
	if sessions < 1 {
		return nil, fmt.Errorf("%w: need at least one session, got %d", ErrSpec, sessions)
	}
	var kind engine.Kind
	switch spec.Protocol {
	case ProtocolBB:
		kind = engine.KindBB
	case ProtocolWBA:
		kind = engine.KindWBA
	case ProtocolStrongBA:
		kind = engine.KindStrongBA
	case ProtocolACS:
		kind = engine.KindACS
	default:
		return nil, fmt.Errorf("%w: engine runs bb, wba, strongba or acs, got %q", ErrSpec, spec.Protocol)
	}
	// Apply Run's spec defaults before deriving inputs, so inputFor sees
	// the same spec a solo run would.
	if spec.Fault == "" {
		spec.Fault = FaultCrash
	}
	if spec.Inputs == "" {
		spec.Inputs = InputsUnanimous
	}
	if spec.Value == nil {
		spec.Value = types.Value("v")
	}
	switch spec.Fault {
	case FaultCrash, FaultCrashLeader:
	default:
		return nil, fmt.Errorf("%w: engine supports crash fault patterns, got %q", ErrSpec, spec.Fault)
	}

	req := engine.Request{Kind: kind, Sender: spec.Sender, Predicate: spec.Predicate}
	switch kind {
	case engine.KindBB:
		req.Value = spec.Value
	case engine.KindACS:
		// Every process proposes its batch, exactly as a solo ProtocolACS
		// run would build it.
		r := &runner{spec: spec}
		for id := 0; id < spec.N; id++ {
			req.Inputs = append(req.Inputs, r.acsBatch(types.ProcessID(id)))
		}
	default:
		// Materialize the spec's input policy (unanimous / distinct /
		// per-process) exactly as a solo Run would assign it.
		r := &runner{spec: spec}
		binary := kind == engine.KindStrongBA
		for id := 0; id < spec.N; id++ {
			req.Inputs = append(req.Inputs, r.inputFor(types.ProcessID(id), binary))
		}
	}
	reqs := make([]engine.Request, sessions)
	for i := range reqs {
		reqs[i] = req
	}

	return engine.Run(engine.Config{
		N:           spec.N,
		T:           spec.T,
		F:           spec.F,
		LeaderFault: spec.Fault == FaultCrashLeader,
		Inflight:    inflight,
		MaxQueue:    maxQueue,
		Seed:        spec.Seed,
		Ed25519:     spec.Ed25519,
		Trace:       spec.Trace,
		TickWorkers: spec.TickWorkers,
		Halt:        spec.Halt,
	}, reqs)
}
