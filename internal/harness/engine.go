package harness

import (
	"fmt"

	"adaptiveba/internal/engine"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// RunEngine executes `sessions` copies of spec's protocol as one
// multi-session engine run: all instances share a single deployment (one
// process set, one failure pattern, one signature ring) and are
// pipelined through the engine's admission window. inflight bounds the
// concurrently live sessions (0 = unbounded, 1 = strictly serial). The
// failure pattern is spec's named tick-0 crash pattern; a spec with
// Adversary set is refused.
//
// The engine schedules sessions so that each one's schedule is
// tick-for-tick the schedule a solo Run of the same spec would produce —
// per-session decisions, words, and messages are byte-identical to
// serial execution, which TestRunEngineMatchesSolo pins.
func RunEngine(spec Spec, sessions, inflight int) (*engine.Report, error) {
	if sessions < 1 {
		return nil, fmt.Errorf("%w: need at least one session, got %d", ErrSpec, sessions)
	}
	if spec.Adversary != nil {
		return nil, fmt.Errorf("%w: engine runs take a named fault pattern, not Spec.Adversary, which is built for a solo run's tag and sessions (ROADMAP item 3(a))", ErrSpec)
	}
	// Run's defaults, so input sees the spec a solo run would.
	spec = spec.withDefaults()
	pattern, adv, err := spec.pattern()
	if err != nil || !pattern.Crash {
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

	cfg := engine.Config{
		N:         spec.N,
		T:         spec.T,
		F:         spec.F,
		Adversary: adv,
		Inflight:  inflight,
		Seed:      spec.Seed,
		OnSend:    spec.OnSend,
	}
	if spec.Ed25519 {
		if cfg.Crypto, err = engine.NewCrypto(spec.N, spec.T, proto.Ed25519()); err != nil {
			return nil, err
		}
	}
	return engine.Run(cfg, reqs)
}
