// Package harness configures, executes, and summarizes simulator runs of
// every protocol in the repository. It is the engine behind the benchmark
// suite (bench_test.go), the experiment CLI (cmd/adaptiveba-bench), and
// the examples: one Spec in, one Outcome with the paper's cost metrics
// out.
package harness

import (
	"crypto/rand"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/baseline/committee"
	"adaptiveba/internal/baseline/dolevstrong"
	"adaptiveba/internal/baseline/echobb"
	"adaptiveba/internal/baseline/floodset"
	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/bbviaba"
	"adaptiveba/internal/core/strongba"
	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/fallback"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/oracle"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// Protocol selects the algorithm under test.
type Protocol string

// Protocols known to the harness.
const (
	// ProtocolBB is the paper's adaptive Byzantine Broadcast (Alg. 1+2).
	ProtocolBB Protocol = "bb"
	// ProtocolWBA is the paper's adaptive weak BA (Alg. 3+4).
	ProtocolWBA Protocol = "wba"
	// ProtocolStrongBA is the paper's binary strong BA (Alg. 5).
	ProtocolStrongBA Protocol = "strongba"
	// ProtocolBBViaBA is the classic reduction BB-from-strong-BA that the
	// paper recalls in Section 5 (binary values only).
	ProtocolBBViaBA Protocol = "bb-via-ba"
	// ProtocolDolevStrong is the classic BB baseline.
	ProtocolDolevStrong Protocol = "dolev-strong"
	// ProtocolEchoBB is the naive always-quadratic BB baseline.
	ProtocolEchoBB Protocol = "echo-bb"
	// ProtocolFallback is A_fallback run directly (the non-adaptive
	// strong BA used as the quadratic-regime baseline).
	ProtocolFallback Protocol = "fallback"
	// ProtocolFloodSet is the early-stopping CRASH-fault consensus from
	// the Section 4 related-work discussion: adaptive rounds, quadratic
	// words — the mirror image of the paper's protocols.
	ProtocolFloodSet Protocol = "floodset"
	// ProtocolCommittee is the King–Saia-style Õ(√n)-words-per-process
	// committee-sampling baseline (CRASH faults): the large-n rival the
	// scale benchmark compares the adaptive protocol against.
	ProtocolCommittee Protocol = "committee"
	// ProtocolACS is the BKR agreement-on-common-subset round: every
	// process proposes a batch of Spec.Batch commands, n concurrent BBs
	// disseminate them, n binary strong-BA votes decide the committed
	// subset (internal/acs).
	ProtocolACS Protocol = "acs"
)

// Fault selects the failure pattern applied to the run.
type Fault string

// Fault patterns.
const (
	// FaultCrash crashes processes 1..F at tick 0: it takes out the first
	// F rotating phase leaders while sparing p0 (the BB sender and the
	// strong BA leader), the pattern that maximizes non-silent phases.
	FaultCrash Fault = "crash"
	// FaultCrashLeader crashes processes 0..F-1, including p0.
	FaultCrashLeader Fault = "crash-leader"
	// FaultReplay crashes ⌈F/1⌉ processes and replays stale honest
	// traffic from them (freshness attack).
	FaultReplay Fault = "replay"
	// FaultSpam makes the corrupted processes wastefully initiate their
	// rotating-leader phases and ignore the answers — the worst-case run
	// family behind the O(n(f+1)) bound (BB and weak BA only; other
	// protocols fall back to FaultCrash).
	FaultSpam Fault = "spam"
	// FaultStagger crashes one process per tick (process i at tick i+1) —
	// the classic worst case for early-stopping round complexity.
	FaultStagger Fault = "stagger"
)

// Inputs selects how process inputs are assigned.
type Inputs string

// Input assignments.
const (
	// InputsUnanimous gives every process the same value.
	InputsUnanimous Inputs = "unanimous"
	// InputsDistinct gives every process a unique value (binary
	// protocols split ~evenly instead).
	InputsDistinct Inputs = "distinct"
)

// Spec describes one run: what is agreed on, on which cluster, under
// which failures, and how the run is instrumented.
type Spec struct {
	Protocol Protocol
	N        int
	// T overrides the corruption threshold (default floor((n-1)/2), the
	// paper's optimal n = 2t+1). Any n >= 2t+1 is supported — Section 8
	// notes the BB/weak BA constructions tolerate improved resilience.
	T      int
	F      int
	Fault  Fault  // default FaultCrash
	Inputs Inputs // default InputsUnanimous
	// Value is the unanimous input / BB broadcast value (default "v";
	// binary protocols use 1).
	Value types.Value
	// PerProcessInputs, when non-nil, assigns each process its own input
	// (length N) and overrides Inputs/Value for the agreement protocols.
	// For ProtocolACS the values must be acs.EncodeBatch frames.
	PerProcessInputs []types.Value
	// Batch is the per-proposer batch size for ProtocolACS (default 1):
	// each process proposes that many synthetic commands, so one round
	// commits up to N×Batch requests.
	Batch int
	// Predicate overrides weak BA's validity predicate (default:
	// accept any non-⊥ value).
	Predicate func(types.Value) bool
	// Sender is the BB designated sender / echo & DS sender (default 0).
	Sender types.ProcessID
	// Seed drives randomized adversaries.
	Seed int64
	// ShuffleSeed permutes per-tick message delivery order (0 = natural
	// order); correct protocols are insensitive to it.
	ShuffleSeed int64
	// CertMode selects the threshold-certificate encoding (default
	// compact).
	CertMode threshold.Mode
	// Ed25519 switches from the fast HMAC scheme to real signatures.
	Ed25519 bool
	// MeasureBytes additionally encodes every payload through the wire
	// registry to count bytes on the wire (slower; off by default).
	MeasureBytes bool
	// CountOps wraps the signature scheme with operation counters and
	// reports SignOps/VerifyOps in the outcome. The counter sits below
	// the verification cache, so VerifyOps counts verifications actually
	// computed — with the cache on, deduplicated repeats are not counted
	// (that saving is the fast path's whole point; see CacheHits).
	CountOps bool
	// NoVerifyCache disables the run's verification fast path (shared
	// content-addressed memoization of signature/certificate checks plus
	// parallel aggregate-share verification) for A/B comparisons. The
	// cache affects CPU cost only: words, messages, decisions, and CSVs
	// are byte-identical in both modes.
	NoVerifyCache bool
	// CertWorkers bounds the per-certificate share-verification fan-out
	// (0 = one worker per CPU, 1 = serial).
	CertWorkers int
	// TickWorkers bounds the simulator's per-tick fan-out of honest
	// machine stepping (0 = one worker per CPU, 1 = serial). Output is
	// byte-identical at any value; see sim.Config.Workers.
	TickWorkers int
	// WBAPhases / BBPhases override phase counts (ablations).
	WBAPhases int
	BBPhases  int
	// DisableSilentPhases removes the adaptivity mechanism (ablation).
	DisableSilentPhases bool
	// Trace, if set, receives the message trace.
	Trace io.Writer
	// Halt, if set, is polled every tick; returning true aborts the run
	// with sim.ErrHalted (the public API's context-cancellation hook).
	Halt func(now types.Tick) bool
	// OnSend, if set, observes every sent message (structured tracing).
	OnSend func(now types.Tick, m sim.Message, honest bool)
	// Adversary, if set, overrides the Fault/F-derived adversary: the
	// factory is invoked once per run with the run's tick budget and must
	// return a fresh sim.Adversary (nil for a failure-free run). The
	// schedule explorer (internal/explore) uses this hook to evaluate
	// searched schedules through the harness; the returned adversary's
	// corruption schedule is still validated against t by the simulator.
	Adversary func(maxTicks types.Tick) sim.Adversary
	// Monitor attaches the wire-level invariant oracle (internal/oracle)
	// to the run; violations land in Outcome.InvariantViolations.
	Monitor bool
}

// Outcome summarizes one run.
type Outcome struct {
	Spec Spec

	Words      int64
	Messages   int64
	Signatures int64
	Bytes      int64 // only when Spec.MeasureBytes
	Combines   int64
	SignOps    int64 // only when Spec.CountOps
	VerifyOps  int64 // only when Spec.CountOps
	Ticks      types.Tick

	// Verification fast-path counters (zero when Spec.NoVerifyCache).
	CacheHits   int64
	CacheMisses int64
	CacheWaits  int64

	Decided   bool // every honest process decided
	Agreement bool
	Decision  types.Value

	// FallbackCount is the number of honest processes that executed
	// A_fallback (adaptive protocols only).
	FallbackCount int
	// DecisionTick is the latest tick at which an honest process decided
	// (the run's decision latency in δ units; adaptive protocols only).
	DecisionTick types.Tick
	// InvariantViolations holds the oracle's findings (Spec.Monitor only).
	InvariantViolations []string
	// ByLayer is the per-protocol-layer word breakdown (Figure 1).
	ByLayer map[string]metrics.Stats
}

// Errors returned by the harness.
var (
	ErrSpec = errors.New("harness: invalid spec")
)

// Run executes one spec in the simulator.
func Run(spec Spec) (*Outcome, error) {
	if spec.N < 3 {
		return nil, fmt.Errorf("%w: n=%d", ErrSpec, spec.N)
	}
	var params types.Params
	var err error
	if spec.T > 0 {
		params, err = types.Custom(spec.N, spec.T)
	} else {
		params, err = types.NewParams(spec.N)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if spec.F < 0 || spec.F > params.T {
		return nil, fmt.Errorf("%w: f=%d with t=%d", ErrSpec, spec.F, params.T)
	}
	if spec.Fault == "" {
		spec.Fault = FaultCrash
	}
	if spec.Inputs == "" {
		spec.Inputs = InputsUnanimous
	}
	if spec.CertMode == 0 {
		spec.CertMode = threshold.ModeCompact
	}
	if spec.Value == nil {
		spec.Value = types.Value("v")
	}

	var scheme sig.Scheme
	if spec.Ed25519 {
		scheme, err = sig.NewEd25519Ring(spec.N, rand.Reader)
	} else {
		seed := fmt.Sprintf("harness-%d", spec.Seed)
		scheme, err = sig.NewHMACRing(spec.N, []byte(seed))
	}
	if err != nil {
		return nil, fmt.Errorf("harness: scheme: %w", err)
	}
	var counter *sig.Counting
	if spec.CountOps {
		counter = sig.NewCounting(scheme)
		scheme = counter
	}
	var copts []proto.CryptoOption
	if spec.NoVerifyCache {
		copts = append(copts, proto.WithoutVerifyCache())
	}
	if spec.CertWorkers > 0 {
		copts = append(copts, proto.WithCertVerifyWorkers(spec.CertWorkers))
	}
	crypto := proto.NewCrypto(params, scheme, spec.CertMode, []byte("harness-dealer"), copts...)

	run := &runner{spec: spec, params: params, crypto: crypto, counter: counter}
	return run.execute()
}

type runner struct {
	spec    Spec
	params  types.Params
	crypto  *proto.Crypto
	counter *sig.Counting

	wbaMachines map[types.ProcessID]*wba.Machine
	sbaMachines map[types.ProcessID]*strongba.Machine
	bbMachines  map[types.ProcessID]*bb.Machine
	fsMachines  map[types.ProcessID]*floodset.Machine
	cmMachines  map[types.ProcessID]*committee.Machine
	acsMachines map[types.ProcessID]*acs.Machine
}

// crashSet derives the crashed process IDs from the fault pattern.
func (r *runner) crashSet() []types.ProcessID {
	ids := make([]types.ProcessID, 0, r.spec.F)
	start := 1
	if r.spec.Fault == FaultCrashLeader {
		start = 0
	}
	for i := 0; len(ids) < r.spec.F; i++ {
		ids = append(ids, types.ProcessID((start+i)%r.spec.N))
	}
	return ids
}

// adversaryFor builds the spec's adversary (nil when f=0).
func (r *runner) adversaryFor(maxTicks types.Tick) sim.Adversary {
	if r.spec.Adversary != nil {
		return r.spec.Adversary(maxTicks)
	}
	if r.spec.F == 0 {
		return nil
	}
	ids := r.crashSet()
	switch r.spec.Fault {
	case FaultStagger:
		at := make(map[types.ProcessID]types.Tick, len(ids))
		for i, id := range ids {
			at[id] = types.Tick(i + 1)
		}
		return adversary.NewCrashAt(at)
	case FaultReplay:
		return adversary.NewReplay(r.spec.Seed, maxTicks/2, ids...)
	case FaultSpam:
		switch r.spec.Protocol {
		case ProtocolBB:
			return attacks.NewBBPhaseSpam(ids...)
		case ProtocolWBA:
			return attacks.NewWBAPhaseSpam(r.inputFor(0, false), ids...)
		default:
			return adversary.NewCrash(ids...)
		}
	default:
		return adversary.NewCrash(ids...)
	}
}

// inputFor assigns process inputs.
func (r *runner) inputFor(id types.ProcessID, binary bool) types.Value {
	if r.spec.PerProcessInputs != nil {
		if int(id) < len(r.spec.PerProcessInputs) {
			return r.spec.PerProcessInputs[id]
		}
		return nil
	}
	switch r.spec.Inputs {
	case InputsDistinct:
		if binary {
			return types.BinaryValue(int(id)%2 == 0)
		}
		return types.Value(fmt.Sprintf("v%d", int(id)))
	default:
		if binary {
			return types.One
		}
		return r.spec.Value
	}
}

// execute builds the factory and runs the simulation.
func (r *runner) execute() (*Outcome, error) {
	var (
		factory  func(types.ProcessID) proto.Machine
		maxTicks types.Tick
		buildErr error
	)
	switch r.spec.Protocol {
	case ProtocolBB:
		r.bbMachines = make(map[types.ProcessID]*bb.Machine)
		cfg := r.bbConfig(0)
		maxTicks = bb.MaxTicks(cfg.Params, cfg.Phases, cfg.WBAPhases) * 2
		factory = func(id types.ProcessID) proto.Machine {
			m := bb.NewMachine(r.bbConfig(id))
			r.bbMachines[id] = m
			return m
		}
	case ProtocolWBA:
		r.wbaMachines = make(map[types.ProcessID]*wba.Machine)
		cfg := r.wbaConfig(0)
		maxTicks = wba.MaxTicks(cfg.Params, cfg.Phases) * 2
		factory = func(id types.ProcessID) proto.Machine {
			m := wba.NewMachine(r.wbaConfig(id))
			r.wbaMachines[id] = m
			return m
		}
	case ProtocolStrongBA:
		r.sbaMachines = make(map[types.ProcessID]*strongba.Machine)
		if err := r.sbaConfig(0).Validate(); err != nil {
			return nil, err
		}
		maxTicks = strongba.MaxTicks(r.params) * 2
		factory = func(id types.ProcessID) proto.Machine {
			m, err := strongba.NewMachine(r.sbaConfig(id))
			if err != nil {
				buildErr = err
				m, _ = strongba.NewMachine(r.sbaConfig(0))
			}
			r.sbaMachines[id] = m
			return m
		}
	case ProtocolBBViaBA:
		probe, err := bbviaba.NewMachine(r.bbviabaConfig(r.spec.Sender))
		if err != nil {
			return nil, err
		}
		maxTicks = probe.MaxTicks() * 2
		factory = func(id types.ProcessID) proto.Machine {
			m, err := bbviaba.NewMachine(r.bbviabaConfig(id))
			if err != nil {
				buildErr = err
				m, _ = bbviaba.NewMachine(r.bbviabaConfig(r.spec.Sender))
			}
			return m
		}
	case ProtocolDolevStrong:
		maxTicks = types.Tick(r.params.T+4) * 2
		factory = func(id types.ProcessID) proto.Machine {
			return dolevstrong.NewMachine(dolevstrong.Config{
				Params: r.params, Crypto: r.crypto, ID: id,
				Sender: r.spec.Sender, Input: r.spec.Value, Tag: "h/ds",
			})
		}
	case ProtocolEchoBB:
		maxTicks = 20
		factory = func(id types.ProcessID) proto.Machine {
			return echobb.NewMachine(echobb.Config{
				Params: r.params, Crypto: r.crypto, ID: id,
				Sender: r.spec.Sender, Input: r.spec.Value, Tag: "h/echo",
			})
		}
	case ProtocolFloodSet:
		maxTicks = types.Tick(r.params.T+6) * 2
		r.fsMachines = make(map[types.ProcessID]*floodset.Machine)
		factory = func(id types.ProcessID) proto.Machine {
			m := floodset.NewMachine(floodset.Config{
				Params: r.params, ID: id, Input: r.inputFor(id, false),
			})
			r.fsMachines[id] = m
			return m
		}
	case ProtocolCommittee:
		maxTicks = types.Tick(2 * (committee.Size(r.spec.N) + 8))
		r.cmMachines = make(map[types.ProcessID]*committee.Machine)
		factory = func(id types.ProcessID) proto.Machine {
			m := committee.NewMachine(committee.Config{
				Params: r.params, ID: id, Input: r.inputFor(id, false),
				// The sampling seed is public common randomness; every
				// process must derive the same committee, so it comes
				// from the spec, not the process.
				Seed: uint64(r.spec.Seed) + 0x636d7465, // "cmte"
			})
			r.cmMachines[id] = m
			return m
		}
	case ProtocolACS:
		r.acsMachines = make(map[types.ProcessID]*acs.Machine)
		maxTicks = acs.MaxTicks(r.params) + 4
		factory = func(id types.ProcessID) proto.Machine {
			m := acs.NewMachine(r.acsConfig(id))
			r.acsMachines[id] = m
			return m
		}
	case ProtocolFallback:
		maxTicks = types.Tick(r.params.T+4) * 4
		factory = func(id types.ProcessID) proto.Machine {
			return fallback.NewMachine(fallback.Config{
				Params: r.params, Crypto: r.crypto, ID: id,
				Input: r.inputFor(id, false), Tag: "h/fb", RoundDur: 1,
			})
		}
	default:
		return nil, fmt.Errorf("%w: unknown protocol %q", ErrSpec, r.spec.Protocol)
	}

	rec := metrics.NewRecorder()
	onSend := r.spec.OnSend
	var monitors []interface{ Violations() []string }
	if r.spec.Monitor {
		var hooks []func(types.Tick, sim.Message, bool)
		if user := onSend; user != nil {
			hooks = append(hooks, user)
		}
		switch r.spec.Protocol {
		case ProtocolWBA:
			m := oracle.NewWBA(r.params, r.crypto, "h/wba", 0)
			monitors = append(monitors, m)
			hooks = append(hooks, m.OnSend)
		case ProtocolBB:
			m := oracle.NewWBA(r.params, r.crypto, "h/bb/wba", 0)
			monitors = append(monitors, m)
			hooks = append(hooks, m.OnSend)
		case ProtocolStrongBA:
			m := oracle.NewStrongBA(r.params, r.crypto, "h/sba")
			monitors = append(monitors, m)
			hooks = append(hooks, m.OnSend)
		}
		if len(hooks) > 0 {
			onSend = func(now types.Tick, msg sim.Message, honest bool) {
				for _, h := range hooks {
					h(now, msg, honest)
				}
			}
		}
	}
	var sizeOf func(proto.Payload) int
	if r.spec.MeasureBytes {
		reg := wire.NewRegistry()
		acs.RegisterWire(reg)
		bb.RegisterWire(reg)
		wba.RegisterWire(reg)
		strongba.RegisterWire(reg)
		dolevstrong.RegisterWire(reg)
		echobb.RegisterWire(reg)
		sizeOf = func(p proto.Payload) int {
			n, err := reg.SizeOf(p)
			if err != nil {
				return 0
			}
			return n
		}
	}
	res, err := sim.Run(sim.Config{
		Params:      r.params,
		Crypto:      r.crypto,
		Factory:     factory,
		Adversary:   r.adversaryFor(maxTicks),
		MaxTicks:    maxTicks,
		Recorder:    rec,
		Trace:       r.spec.Trace,
		SizeOf:      sizeOf,
		ShuffleSeed: r.spec.ShuffleSeed,
		OnSend:      onSend,
		Workers:     r.spec.TickWorkers,
		Halt:        r.spec.Halt,
	})
	if err != nil {
		return nil, err
	}
	if buildErr != nil {
		return nil, buildErr
	}

	decision, agreement := res.Agreement()
	out := &Outcome{
		Spec:          r.spec,
		Words:         res.Report.Honest.Words,
		Messages:      res.Report.Honest.Messages,
		Signatures:    res.Report.Honest.Signatures,
		Bytes:         res.Report.Honest.Bytes,
		Combines:      res.Report.Combines,
		Ticks:         res.Ticks,
		Decided:       res.AllDecided() && !res.TimedOut,
		Agreement:     agreement,
		Decision:      decision,
		ByLayer:       res.Report.ByLayer,
		FallbackCount: r.fallbackCount(res),
		DecisionTick:  r.decisionTick(res),
		CacheHits:     res.Report.CacheHits,
		CacheMisses:   res.Report.CacheMisses,
		CacheWaits:    res.Report.CacheWaits,
	}
	if r.counter != nil {
		out.SignOps = r.counter.Signs()
		out.VerifyOps = r.counter.Verifies()
	}
	for _, m := range monitors {
		out.InvariantViolations = append(out.InvariantViolations, m.Violations()...)
	}
	return out, nil
}

func (r *runner) bbConfig(id types.ProcessID) bb.Config {
	return bb.Config{
		Params: r.params, Crypto: r.crypto, ID: id,
		Sender: r.spec.Sender, Input: r.spec.Value, Tag: "h/bb",
		Phases: r.spec.BBPhases, WBAPhases: r.spec.WBAPhases,
		DisableSilentPhases: r.spec.DisableSilentPhases,
	}
}

func (r *runner) wbaConfig(id types.ProcessID) wba.Config {
	pred := valid.NonBottom()
	if r.spec.Predicate != nil {
		pred = valid.Func{PredicateName: "custom", Fn: r.spec.Predicate}
	}
	return wba.Config{
		Params: r.params, Crypto: r.crypto, ID: id,
		Input: r.inputFor(id, false), Predicate: pred,
		Tag: "h/wba", Phases: r.spec.WBAPhases,
		DisableSilentPhases: r.spec.DisableSilentPhases,
	}
}

func (r *runner) bbviabaConfig(id types.ProcessID) bbviaba.Config {
	bit := r.spec.Value
	if !bit.IsBinary() {
		bit = types.One
	}
	return bbviaba.Config{
		Params: r.params, Crypto: r.crypto, ID: id,
		Sender: r.spec.Sender, Input: bit, Tag: "h/bbr",
	}
}

func (r *runner) sbaConfig(id types.ProcessID) strongba.Config {
	return strongba.Config{
		Params: r.params, Crypto: r.crypto, ID: id,
		Input: r.inputFor(id, true), Tag: "h/sba",
	}
}

// acsBatch builds process id's proposed batch: Spec.Batch synthetic
// commands (deterministic per proposer), unless PerProcessInputs
// supplies a pre-framed batch.
func (r *runner) acsBatch(id types.ProcessID) types.Value {
	if r.spec.PerProcessInputs != nil {
		if int(id) < len(r.spec.PerProcessInputs) {
			return r.spec.PerProcessInputs[id]
		}
		return nil
	}
	size := r.spec.Batch
	if size <= 0 {
		size = 1
	}
	cmds := make([]types.Value, 0, size)
	for j := 0; j < size; j++ {
		cmds = append(cmds, types.Value(fmt.Sprintf("SET a%d-%d v%d", int(id), j, j)))
	}
	return acs.EncodeBatch(cmds)
}

func (r *runner) acsConfig(id types.ProcessID) acs.Config {
	return acs.Config{
		Params: r.params, Crypto: r.crypto, ID: id,
		Input: r.acsBatch(id), Tag: "h/acs",
	}
}

// fallbackCount counts honest processes that ran A_fallback.
func (r *runner) fallbackCount(res *sim.Result) int {
	count := 0
	for _, id := range res.Honest {
		switch {
		case r.wbaMachines != nil:
			if m := r.wbaMachines[id]; m != nil && m.RanFallback() {
				count++
			}
		case r.sbaMachines != nil:
			if m := r.sbaMachines[id]; m != nil && m.RanFallback() {
				count++
			}
		case r.bbMachines != nil:
			if m := r.bbMachines[id]; m != nil && m.WBA() != nil && m.WBA().RanFallback() {
				count++
			}
		case r.acsMachines != nil:
			if m := r.acsMachines[id]; m != nil && m.RanFallback() {
				count++
			}
		}
	}
	return count
}

// decisionTick returns the latest honest decision tick (0 for protocols
// without latency introspection).
func (r *runner) decisionTick(res *sim.Result) types.Tick {
	var latest types.Tick
	note := func(t types.Tick) {
		if t > latest {
			latest = t
		}
	}
	for _, id := range res.Honest {
		switch {
		case r.wbaMachines != nil:
			if m := r.wbaMachines[id]; m != nil {
				note(m.DecidedAtTick())
			}
		case r.sbaMachines != nil:
			if m := r.sbaMachines[id]; m != nil {
				note(m.DecidedAtTick())
			}
		case r.bbMachines != nil:
			if m := r.bbMachines[id]; m != nil {
				note(m.DecidedAtTick())
			}
		case r.fsMachines != nil:
			if m := r.fsMachines[id]; m != nil {
				note(types.Tick(m.Rounds()))
			}
		case r.cmMachines != nil:
			if m := r.cmMachines[id]; m != nil {
				note(types.Tick(m.Rounds()))
			}
		case r.acsMachines != nil:
			if m := r.acsMachines[id]; m != nil {
				note(m.DecidedAtTick())
			}
		}
	}
	return latest
}

// Sweep runs the spec across (n, f) combinations (skipping infeasible
// f > t pairs), in parallel across CPU cores — runs are independent
// simulations with private crypto suites. Results are identical to a
// sequential sweep (see Pool's determinism contract in parallel.go).
func Sweep(base Spec, ns, fs []int) ([]Outcome, error) {
	return Parallel().Sweep(base, ns, fs)
}

// Table renders outcomes as an aligned text table.
func Table(outcomes []Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %6s %5s %10s %10s %7s %9s %7s %7s\n",
		"protocol", "n", "f", "words", "msgs", "ticks", "words/n", "fb", "ok")
	for i := range outcomes {
		o := &outcomes[i]
		okStr := "yes"
		if !o.Decided || !o.Agreement {
			okStr = "NO"
		}
		fmt.Fprintf(&b, "%-14s %6d %5d %10d %10d %7d %9.1f %7d %7s\n",
			o.Spec.Protocol, o.Spec.N, o.Spec.F, o.Words, o.Messages, o.Ticks,
			float64(o.Words)/float64(o.Spec.N), o.FallbackCount, okStr)
	}
	return b.String()
}

// WriteCSV emits outcomes as CSV for external plotting.
func WriteCSV(w io.Writer, outcomes []Outcome) error {
	cw := csv.NewWriter(w)
	header := []string{
		"protocol", "n", "t", "f", "fault", "words", "messages",
		"signatures", "ticks", "decision_tick", "fallback_procs",
		"decided", "agreement",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range outcomes {
		o := &outcomes[i]
		t := o.Spec.T
		if t == 0 {
			t = (o.Spec.N - 1) / 2
		}
		row := []string{
			string(o.Spec.Protocol),
			strconv.Itoa(o.Spec.N),
			strconv.Itoa(t),
			strconv.Itoa(o.Spec.F),
			string(o.Spec.Fault),
			strconv.FormatInt(o.Words, 10),
			strconv.FormatInt(o.Messages, 10),
			strconv.FormatInt(o.Signatures, 10),
			strconv.FormatInt(int64(o.Ticks), 10),
			strconv.FormatInt(int64(o.DecisionTick), 10),
			strconv.Itoa(o.FallbackCount),
			strconv.FormatBool(o.Decided),
			strconv.FormatBool(o.Agreement),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Stats aggregates repeated runs of one spec across seeds — the honest
// way to report randomized-adversary numbers.
type Stats struct {
	Spec  Spec
	Runs  int
	Words struct{ Min, Median, Max int64 }
	Ticks struct{ Min, Median, Max types.Tick }
	// Violations counts runs that failed termination or agreement
	// (always 0 for a correct implementation).
	Violations int
}

// RunStats executes the spec once per seed and aggregates. The
// aggregation is order-independent, so any Pool produces the same
// Stats; use Pool.Stats directly to spread the seeds across workers.
func RunStats(spec Spec, seeds []int64) (*Stats, error) {
	return Sequential().Stats(spec, seeds)
}
