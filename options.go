// Functional options, typed sentinel errors, context plumbing, and the
// package's one run path over the multi-session engine (RunMany and the
// single-instance calls).
package adaptiveba

import (
	"context"
	"errors"
	"fmt"
	"io"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/proto"
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

// haltFrom adapts a context into the simulator's halt poll, made at
// every tick that runs. The run is fully synchronous — no goroutines
// outlive it — so polling at tick granularity makes cancellation prompt
// and leak-free.
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

// engineConfig validates a run's options into the engine's
// configuration. Failures carry the typed sentinels (ErrBadN,
// ErrTooManyFaults, ErrNoQuorum), each of which also matches the broad
// ErrOptions class. A single-instance run (solo) takes every
// FaultPattern; a multi-instance run only the patterns the pattern table
// (attacks.Patterns) marks as tick-0 crashes, since its instances share
// one deployment, so the corrupted set persists across all of them, as
// it would in production.
func engineConfig(ctx context.Context, o options, solo bool) (engine.Config, error) {
	if o.n < 3 {
		return engine.Config{}, fmt.Errorf("%w: n=%d (need at least 3)", ErrBadN, o.n)
	}
	var params types.Params
	var err error
	if o.threshold != 0 {
		params, err = types.Custom(o.n, o.threshold)
		if err != nil {
			return engine.Config{}, fmt.Errorf("%w: n=%d cannot tolerate t=%d (%v)",
				ErrNoQuorum, o.n, o.threshold, err)
		}
	} else if params, err = types.NewParams(o.n); err != nil {
		return engine.Config{}, fmt.Errorf("%w: %v", ErrBadN, err)
	}
	if o.faults < 0 || o.faults > params.T {
		return engine.Config{}, fmt.Errorf("%w: f=%d with t=%d", ErrTooManyFaults, o.faults, params.T)
	}
	switch o.pattern {
	case "", FaultCrash, FaultCrashLeader, FaultReplay:
	default:
		return engine.Config{}, fmt.Errorf("%w: unknown fault pattern %q", ErrOptions, o.pattern)
	}
	pattern, _ := attacks.PatternNamed(string(o.pattern))
	if !solo && !pattern.Crash {
		return engine.Config{}, fmt.Errorf("%w: pattern %q is not supported by multi-session runs (crash patterns only)",
			ErrOptions, o.pattern)
	}
	adv, err := pattern.Build("", "", o.faults, o.seed)
	if err != nil {
		return engine.Config{}, fmt.Errorf("%w: %v", ErrOptions, err)
	}
	cfg := engine.Config{
		N: o.n, T: o.threshold, F: o.faults,
		Adversary: adv,
		Inflight:  o.inflight, Seed: o.seed,
		Halt: haltFrom(ctx),
	}
	if o.realSignatures {
		if cfg.Crypto, err = engine.NewCrypto(o.n, o.threshold, proto.Ed25519()); err != nil {
			return engine.Config{}, err
		}
	}
	if o.trace != nil {
		cfg.OnSend = sim.TraceTo(o.trace)
	}
	return cfg, nil
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
	return agreeRequest(protocols.WBA, n, inputs, predicate, opts)
}

// agreeRequest asks for one instance of an agreement kind that takes one
// non-empty input per process.
func agreeRequest(kind protocols.Kind, n int, inputs [][]byte, predicate func([]byte) bool, opts []Option) Request {
	cp := make([][]byte, len(inputs))
	for i, in := range inputs {
		cp[i] = append([]byte(nil), in...)
	}
	return Request{N: n, Opts: opts, kind: kind, inputs: cp, predicate: predicate}
}

// StrongAgreeBinaryRequest asks for one binary strong BA instance
// (inputs[i] is process i's bit).
func StrongAgreeBinaryRequest(n int, inputs []bool, opts ...Option) Request {
	return Request{N: n, Opts: opts, kind: protocols.StrongBA,
		bits: append([]bool(nil), inputs...)}
}

// engineRequest validates the request's inputs for n processes into the
// engine's request.
func (r *Request) engineRequest(n int) (engine.Request, error) {
	switch r.kind {
	case protocols.BB:
		if r.sender < 0 || r.sender >= n {
			return engine.Request{}, fmt.Errorf("%w: sender %d out of range", ErrInputs, r.sender)
		}
		value := types.Value(r.value)
		if value == nil {
			value = types.Value("v") // an empty broadcast sends the default value
		}
		return engine.Request{Kind: protocols.BB, Sender: types.ProcessID(r.sender), Value: value}, nil
	case protocols.WBA, protocols.Fallback:
		if len(r.inputs) != n {
			return engine.Request{}, fmt.Errorf("%w: need %d inputs, got %d", ErrInputs, n, len(r.inputs))
		}
		inputs := make([]types.Value, n)
		for p, in := range r.inputs {
			if len(in) == 0 {
				return engine.Request{}, fmt.Errorf("%w: process %d has an empty input", ErrInputs, p)
			}
			inputs[p] = types.Value(in)
		}
		var pred func(types.Value) bool
		if user := r.predicate; user != nil {
			pred = func(v types.Value) bool { return user([]byte(v)) }
		}
		return engine.Request{Kind: r.kind, Inputs: inputs, Predicate: pred}, nil
	case protocols.StrongBA:
		if len(r.bits) != n {
			return engine.Request{}, fmt.Errorf("%w: need %d inputs, got %d", ErrInputs, n, len(r.bits))
		}
		inputs := make([]types.Value, n)
		for p, b := range r.bits {
			inputs[p] = types.BinaryValue(b)
		}
		return engine.Request{Kind: protocols.StrongBA, Inputs: inputs}, nil
	}
	return engine.Request{}, fmt.Errorf("%w: not built by a Request constructor", ErrInputs)
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
	rep, err := run(ctx, false, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(rep.Sessions))
	for i := range rep.Sessions {
		s := &rep.Sessions[i]
		out[i] = result(s, max(s.DecisionTick-s.Start, 0))
	}
	return out, nil
}

// run is the package's one agreement path: it validates the requests
// against their merged options and runs them as sessions of one engine
// run, solo for a single-instance call (see engineConfig).
func run(ctx context.Context, solo bool, reqs []Request) (*engine.Report, error) {
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
	cfg, err := engineConfig(ctx, merged, solo)
	if err != nil {
		return nil, err
	}
	ereqs := make([]engine.Request, len(reqs))
	for i := range reqs {
		if ereqs[i], err = reqs[i].engineRequest(n); err != nil {
			if solo {
				return nil, err
			}
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	rep, err := engine.Run(cfg, ereqs)
	if err != nil {
		return nil, mapCanceled(ctx, err)
	}
	return rep, nil
}
