// Package adaptiveba is a from-scratch Go implementation of the protocols
// in "Make Every Word Count: Adaptive Byzantine Agreement with Fewer
// Words" (Cohen, Keidar, Spiegelman — PODC 2022): Byzantine Broadcast and
// weak Byzantine Agreement with O(n(f+1)) communication at optimal
// resilience n = 2t+1, and a binary strong BA that is linear in the
// failure-free case.
//
// The package's primary surface is context-aware and option-based:
// BroadcastContext, WeakAgreeContext, StrongAgreeBinaryContext,
// StrongAgreeContext, and ReplicateLogContext each execute a full
// protocol run on the built-in deterministic synchronous simulator and
// report the decision together with the paper's cost metrics (words
// sent by correct processes); RunMany fans a whole batch of instances
// out, pipelined up to the WithInflight window. Every call runs on one
// runtime, the multi-session engine: a single-instance call is a
// one-session run. Fault injection and every other knob are functional
// Options (WithFaults, WithPattern, WithSeed, WithRealSignatures,
// WithTrace, WithThreshold, WithInflight); validation and cancellation
// failures are typed sentinels (ErrBadN, ErrTooManyFaults, ErrNoQuorum,
// ErrCanceled) matched with errors.Is.
//
// For networked deployments, lower-level building blocks (the protocol
// state machines, the TCP runtime, the adversary library, and the
// experiment harness) live under internal/; the cmd/ binaries expose them
// on the command line.
package adaptiveba

import (
	"context"
	"errors"

	"adaptiveba/internal/engine"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

// FaultPattern selects how the run's f corrupted processes misbehave.
type FaultPattern string

// Fault patterns supported by the one-shot API.
const (
	// FaultCrash stops processes 1..f (the first rotating leaders; the
	// worst crash placement for the adaptive protocols).
	FaultCrash FaultPattern = "crash"
	// FaultCrashLeader stops processes 0..f-1, including the designated
	// sender/leader p0.
	FaultCrashLeader FaultPattern = "crash-leader"
	// FaultReplay stops the corrupted processes and replays stale honest
	// traffic from their identities.
	FaultReplay FaultPattern = "replay"
)

// Result reports a completed run.
type Result struct {
	// Decision is the agreed value; nil means the protocol decided ⊥.
	Decision []byte
	// Bottom reports a ⊥ decision explicitly.
	Bottom bool
	// Agreement is true when all correct processes decided identically
	// (it always should be; exposed for test harnesses and paranoia).
	Agreement bool
	// AllDecided is true when every correct process terminated with a
	// decision.
	AllDecided bool
	// Words is the paper's cost measure: words sent by correct processes.
	Words int64
	// Messages is the number of messages sent by correct processes.
	Messages int64
	// Ticks is the run's duration in δ units.
	Ticks int64
	// FallbackProcesses is the number of correct processes that executed
	// the quadratic fallback algorithm.
	FallbackProcesses int
	// LayerWords breaks Words down per protocol layer (the composition
	// of Figure 1 in the paper).
	LayerWords map[string]int64
}

// Errors returned by the public API.
var (
	// ErrOptions reports invalid options.
	ErrOptions = errors.New("adaptiveba: invalid options")
	// ErrInputs reports invalid protocol inputs.
	ErrInputs = errors.New("adaptiveba: invalid inputs")
)

// BroadcastContext runs the adaptive Byzantine Broadcast (paper
// Algorithms 1–2) with process 0 as the designated sender broadcasting
// value. When the sender stays correct, the decision is value at every
// correct process; with a corrupted sender the decision is some common
// value or ⊥. The context cancels the run promptly (at tick
// granularity) with ErrCanceled.
func BroadcastContext(ctx context.Context, n int, value []byte, opts ...Option) (*Result, error) {
	return runOne(ctx, BroadcastRequest(n, 0, value, opts...))
}

// WeakAgreeContext runs the adaptive weak Byzantine Agreement
// (Algorithms 3–4) with one input per process (inputs[i] is process i's
// proposal) and the given validity predicate; a nil predicate accepts
// any non-empty value. Unique validity guarantees the decision satisfies
// the predicate or is ⊥, and ⊥ only when several valid values existed
// in the run. The context cancels the run promptly with ErrCanceled.
func WeakAgreeContext(ctx context.Context, n int, inputs [][]byte, predicate func([]byte) bool, opts ...Option) (*Result, error) {
	return runOne(ctx, WeakAgreeRequest(n, inputs, predicate, opts...))
}

// StrongAgreeBinaryContext runs the binary strong BA (Algorithm 5):
// inputs[i] is process i's bit. If all correct processes propose the
// same bit, that bit is the decision; the cost is O(n) words when no
// process fails. The context cancels the run promptly with ErrCanceled.
func StrongAgreeBinaryContext(ctx context.Context, n int, inputs []bool, opts ...Option) (*Result, error) {
	return runOne(ctx, StrongAgreeBinaryRequest(n, inputs, opts...))
}

// StrongAgreeContext runs multivalued strong Byzantine Agreement: if all
// correct processes propose the same value, that value is decided.
// Unlike the adaptive protocols, its cost does not adapt to f — it is
// the quadratic A_fallback (n parallel authenticated broadcasts and a
// plurality vote) run directly, provided for completeness of the problem
// family (the paper's Table 1 cites Momose–Ren for this row). The
// context cancels the run promptly with ErrCanceled.
func StrongAgreeContext(ctx context.Context, n int, inputs [][]byte, opts ...Option) (*Result, error) {
	return runOne(ctx, agreeRequest(protocols.Fallback, n, inputs, nil, opts))
}

// Bit converts a binary decision back to a bool. ok is false for ⊥ or
// non-binary decisions.
func (r *Result) Bit() (bit, ok bool) {
	v := types.Value(r.Decision)
	if !v.IsBinary() {
		return false, false
	}
	return v.Equal(types.One), true
}

// runOne runs a single-instance call: a one-session engine run whose
// Result.Ticks is the whole run's length.
func runOne(ctx context.Context, req Request) (*Result, error) {
	rep, err := run(ctx, true, []Request{req})
	if err != nil {
		return nil, err
	}
	return result(&rep.Sessions[0], rep.Ticks), nil
}

// result converts one engine session into a Result reporting ticks.
func result(s *engine.SessionResult, ticks types.Tick) *Result {
	res := &Result{
		Bottom:            s.Decision.IsBottom(),
		Agreement:         s.Agreement,
		AllDecided:        s.AllDecided,
		Words:             s.Words,
		Messages:          s.Messages,
		Ticks:             int64(ticks),
		FallbackProcesses: s.FallbackProcs,
		LayerWords:        make(map[string]int64, len(s.ByLayer)),
	}
	if !s.Decision.IsBottom() {
		res.Decision = append([]byte(nil), s.Decision...)
	}
	for layer, st := range s.ByLayer {
		res.LayerWords[layer] = st.Words
	}
	return res
}
