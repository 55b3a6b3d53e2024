// Functional options, typed sentinel errors, context plumbing, and the
// multi-session RunMany fan-out over the engine.
package adaptiveba

import (
	"context"
	"errors"
	"fmt"
	"io"

	"adaptiveba/internal/engine"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// Option configures a run. Options compose left to right:
//
//	BroadcastContext(ctx, 9, value, adaptiveba.WithFaults(2), adaptiveba.WithSeed(7))
type Option func(*options)

// options is the folded form of a run's Option list.
type options struct {
	n              int
	faults         int
	pattern        FaultPattern
	seed           int64
	realSignatures bool
	trace          io.Writer
	threshold      int
	inflight       int
	batch          int
}

// WithFaults corrupts f processes (0 ≤ f ≤ t).
func WithFaults(f int) Option { return func(o *options) { o.faults = f } }

// WithPattern selects how the corrupted processes misbehave (default
// FaultCrash).
func WithPattern(p FaultPattern) Option { return func(o *options) { o.pattern = p } }

// WithSeed drives randomized fault patterns.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithRealSignatures switches from fast HMAC authenticators to Ed25519.
func WithRealSignatures() Option { return func(o *options) { o.realSignatures = true } }

// WithTrace streams a per-message trace of the run to w.
func WithTrace(w io.Writer) Option { return func(o *options) { o.trace = w } }

// WithThreshold overrides the corruption threshold t (default
// floor((n-1)/2), the paper's optimal n = 2t+1). A threshold the
// process count cannot support — n < 2t+1 leaves no honest quorum —
// fails with ErrNoQuorum.
func WithThreshold(t int) Option { return func(o *options) { o.threshold = t } }

// WithInflight bounds how many sessions a multi-session run (RunMany,
// ReplicateLogContext, ReplicateBatchContext) keeps in flight
// concurrently; 1 runs them strictly serially and 0 (the default)
// pipelines as deeply as the workload allows. Per-session decisions and
// word counts are identical at every window size; only wall time and
// tick count change.
func WithInflight(w int) Option { return func(o *options) { o.inflight = w } }

// sentinel is a typed API error chained onto its broad class, so
// errors.Is matches both the precise identity (ErrBadN) and the class
// (ErrOptions).
type sentinel struct {
	msg  string
	base error
}

func (e *sentinel) Error() string { return e.msg }
func (e *sentinel) Unwrap() error { return e.base }

// Typed sentinel errors returned by validation and cancellation paths.
// Each chains to the class it refines: errors.Is(err, ErrBadN) implies
// errors.Is(err, ErrOptions).
var (
	// ErrBadN reports an unusable process count (n < 3).
	ErrBadN error = &sentinel{"adaptiveba: invalid process count", ErrOptions}
	// ErrTooManyFaults reports f outside 0..t.
	ErrTooManyFaults error = &sentinel{"adaptiveba: fault count exceeds threshold", ErrOptions}
	// ErrNoQuorum reports a threshold override the process count cannot
	// support (n < 2t+1 leaves no honest quorum).
	ErrNoQuorum error = &sentinel{"adaptiveba: no honest quorum possible", ErrOptions}
	// ErrCanceled reports a run aborted by its context; it wraps the
	// context's own error, so errors.Is(err, context.Canceled) works too.
	ErrCanceled = errors.New("adaptiveba: run canceled")
)

// buildOptions folds functional options into one options value.
func buildOptions(n int, opts []Option) options {
	o := options{n: n}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// haltFrom adapts a context into the simulator's per-tick halt poll.
// The run is fully synchronous — no goroutines outlive it — so polling
// at tick granularity makes cancellation prompt and leak-free.
func haltFrom(ctx context.Context) func(types.Tick) bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func(types.Tick) bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}

// mapCanceled rewrites the simulator's halt error into ErrCanceled,
// chaining the context's cause.
func mapCanceled(ctx context.Context, err error) error {
	if err != nil && errors.Is(err, sim.ErrHalted) {
		return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
	return err
}

// engineConfig validates the options of a multi-session run into the
// engine's configuration: the solo-run checks, so every sentinel behaves
// identically across entry points, plus crash patterns only — the
// sessions share one deployment, so the corrupted set persists across
// all of them, as it would in production.
func engineConfig(ctx context.Context, o options) (engine.Config, error) {
	spec, err := baseSpec(o)
	if err != nil {
		return engine.Config{}, err
	}
	if spec.Fault != harness.FaultCrash && spec.Fault != harness.FaultCrashLeader {
		return engine.Config{}, fmt.Errorf("%w: pattern %q is not supported by multi-session runs (crash patterns only)",
			ErrOptions, o.pattern)
	}
	return engine.Config{
		N: o.n, T: o.threshold, F: o.faults, LeaderFault: spec.Fault == harness.FaultCrashLeader,
		Inflight: o.inflight, Seed: o.seed,
		Ed25519: o.realSignatures, Trace: o.trace,
		Halt: haltFrom(ctx),
	}, nil
}

// Request describes one agreement instance for RunMany. Build requests
// with BroadcastRequest, WeakAgreeRequest, or StrongAgreeBinaryRequest.
type Request struct {
	// N is the process count; every request in one RunMany batch must
	// agree on it (0 inherits the batch's value).
	N int
	// Opts contribute run-level options, merged in request order across
	// the batch (the batch shares one simulated deployment, so faults,
	// signatures, and the in-flight window are per-batch, not
	// per-request).
	Opts []Option

	kind      protocols.Kind
	sender    int
	value     []byte
	inputs    [][]byte
	bits      []bool
	predicate func([]byte) bool
}

// BroadcastRequest asks for one adaptive BB instance with the given
// designated sender broadcasting value.
func BroadcastRequest(n, sender int, value []byte, opts ...Option) Request {
	return Request{N: n, Opts: opts, kind: protocols.BB, sender: sender,
		value: append([]byte(nil), value...)}
}

// WeakAgreeRequest asks for one adaptive weak BA instance (inputs[i] is
// process i's proposal; nil predicate accepts any non-empty value).
func WeakAgreeRequest(n int, inputs [][]byte, predicate func([]byte) bool, opts ...Option) Request {
	cp := make([][]byte, len(inputs))
	for i, in := range inputs {
		cp[i] = append([]byte(nil), in...)
	}
	return Request{N: n, Opts: opts, kind: protocols.WBA, inputs: cp, predicate: predicate}
}

// StrongAgreeBinaryRequest asks for one binary strong BA instance
// (inputs[i] is process i's bit).
func StrongAgreeBinaryRequest(n int, inputs []bool, opts ...Option) Request {
	return Request{N: n, Opts: opts, kind: protocols.StrongBA,
		bits: append([]bool(nil), inputs...)}
}

// RunMany executes many agreement instances concurrently over one
// shared simulated deployment, fanning out over the multi-session
// engine: instances run in their own sessions, pipelined up to the
// WithInflight window (default: as deep as the workload allows), with
// identical per-session decisions and word counts at every window size.
// Results are returned in request order. Result.Ticks is the session's
// decision latency in δ units (not the whole run's length).
//
// Only crash fault patterns are supported here (FaultCrash,
// FaultCrashLeader): the batch shares one deployment, so the corrupted
// set persists across all instances, as it would in production.
func RunMany(ctx context.Context, reqs ...Request) ([]*Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%w: no requests", ErrInputs)
	}
	n := 0
	for i := range reqs {
		if reqs[i].N == 0 {
			continue
		}
		if n == 0 {
			n = reqs[i].N
		} else if reqs[i].N != n {
			return nil, fmt.Errorf("%w: request %d wants n=%d, batch has n=%d", ErrBadN, i, reqs[i].N, n)
		}
	}
	merged := options{n: n}
	for i := range reqs {
		for _, opt := range reqs[i].Opts {
			opt(&merged)
		}
	}
	cfg, err := engineConfig(ctx, merged)
	if err != nil {
		return nil, err
	}

	ereqs := make([]engine.Request, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		switch r.kind {
		case protocols.BB:
			if r.sender < 0 || r.sender >= n {
				return nil, fmt.Errorf("%w: request %d sender %d out of range", ErrInputs, i, r.sender)
			}
			value := types.Value(r.value)
			if value == nil {
				value = types.Value("v") // BroadcastContext's default value
			}
			ereqs[i] = engine.Request{Kind: protocols.BB, Sender: types.ProcessID(r.sender), Value: value}
		case protocols.WBA:
			if len(r.inputs) != n {
				return nil, fmt.Errorf("%w: request %d needs %d inputs, got %d", ErrInputs, i, n, len(r.inputs))
			}
			inputs := make([]types.Value, n)
			for p, in := range r.inputs {
				if len(in) == 0 {
					return nil, fmt.Errorf("%w: request %d process %d has an empty input", ErrInputs, i, p)
				}
				inputs[p] = types.Value(in)
			}
			var pred func(types.Value) bool
			if user := r.predicate; user != nil {
				pred = func(v types.Value) bool { return user([]byte(v)) }
			}
			ereqs[i] = engine.Request{Kind: protocols.WBA, Inputs: inputs, Predicate: pred}
		case protocols.StrongBA:
			if len(r.bits) != n {
				return nil, fmt.Errorf("%w: request %d needs %d inputs, got %d", ErrInputs, i, n, len(r.bits))
			}
			inputs := make([]types.Value, n)
			for p, b := range r.bits {
				inputs[p] = types.BinaryValue(b)
			}
			ereqs[i] = engine.Request{Kind: protocols.StrongBA, Inputs: inputs}
		default:
			return nil, fmt.Errorf("%w: request %d was not built by a Request constructor", ErrInputs, i)
		}
	}

	rep, err := engine.Run(cfg, ereqs)
	if err != nil {
		return nil, mapCanceled(ctx, err)
	}

	out := make([]*Result, len(rep.Sessions))
	for i := range rep.Sessions {
		s := &rep.Sessions[i]
		res := &Result{
			Bottom:            s.Decision.IsBottom(),
			Agreement:         s.Agreement,
			AllDecided:        s.AllDecided,
			Words:             s.Words,
			Messages:          s.Messages,
			FallbackProcesses: s.FallbackProcs,
			LayerWords:        make(map[string]int64, len(s.ByLayer)),
		}
		if s.DecisionTick > s.Start {
			res.Ticks = int64(s.DecisionTick - s.Start)
		}
		if !s.Decision.IsBottom() {
			res.Decision = append([]byte(nil), s.Decision...)
		}
		for layer, st := range s.ByLayer {
			res.LayerWords[layer] = st.Words
		}
		out[i] = res
	}
	return out, nil
}
