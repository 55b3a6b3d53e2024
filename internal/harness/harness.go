// Package harness configures, executes, and summarizes simulator runs of
// every protocol in the repository. It is the engine behind the benchmark
// suite (bench_test.go), the experiment CLI (cmd/adaptiveba-bench), and
// the examples: one Spec in, one Outcome with the paper's cost metrics
// out.
package harness

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/oracle"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// Protocol selects the algorithm under test: one kind of the protocol
// table (internal/protocols documents each).
type Protocol = protocols.Kind

// The harness's names for the table's kinds.
const (
	ProtocolBB          = protocols.BB
	ProtocolWBA         = protocols.WBA
	ProtocolStrongBA    = protocols.StrongBA
	ProtocolBBViaBA     = protocols.BBViaBA
	ProtocolDolevStrong = protocols.DolevStrong
	ProtocolEchoBB      = protocols.EchoBB
	ProtocolFallback    = protocols.Fallback
	ProtocolFloodSet    = protocols.FloodSet
	ProtocolCommittee   = protocols.Committee
	// ProtocolACS runs one round in which every process proposes a batch
	// of Spec.Batch commands.
	ProtocolACS = protocols.ACS
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
	// family behind the O(n(f+1)) bound: attacks.PhaseSpam over
	// processes 1..F, F ≤ 255 (BB and weak BA only; other protocols fall
	// back to FaultCrash).
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
	// Batch is the per-proposer batch size for ProtocolACS (default 1):
	// each process proposes that many synthetic commands, so one round
	// commits up to N×Batch requests.
	Batch int
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
	// CountOps wraps the signature scheme with operation counters and
	// reports SignOps/VerifyOps in the outcome. A counting run has no
	// verification cache (see proto.CountOps), so VerifyOps is the
	// protocol's inherent verification demand: every check a process
	// asks for is computed and counted.
	CountOps bool
	// WBAPhases overrides weak BA's phase count (ablation).
	WBAPhases int
	// DisableSilentPhases removes the adaptivity mechanism (ablation).
	DisableSilentPhases bool
	// OnSend, if set, observes every charged message (structured
	// tracing; sim.TraceTo builds the text trace on it).
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
	Bytes      int64
	SignOps    int64 // only when Spec.CountOps
	VerifyOps  int64 // only when Spec.CountOps
	Ticks      types.Tick

	// Verification fast-path counters (zero when Spec.CountOps).
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
	params, err := types.ParamsFor(spec.N, spec.T)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if spec.F < 0 || spec.F > params.T {
		return nil, fmt.Errorf("%w: f=%d with t=%d", ErrSpec, spec.F, params.T)
	}
	spec = spec.withDefaults()
	switch spec.Fault {
	case FaultCrash, FaultCrashLeader, FaultReplay, FaultStagger:
	case FaultSpam:
		// The phase-spam genome addresses processes and phases by byte.
		if spec.F > math.MaxUint8 {
			return nil, fmt.Errorf("%w: spam corrupts at most %d processes, f=%d", ErrSpec, math.MaxUint8, spec.F)
		}
	default:
		return nil, fmt.Errorf("%w: unknown fault pattern %q", ErrSpec, spec.Fault)
	}
	if spec.Inputs != InputsUnanimous && spec.Inputs != InputsDistinct {
		return nil, fmt.Errorf("%w: unknown input policy %q", ErrSpec, spec.Inputs)
	}

	keys := proto.Derived(fmt.Sprintf("harness-%d", spec.Seed), "harness-dealer")
	if spec.Ed25519 {
		keys = proto.Ed25519()
	}
	var copts []proto.CryptoOption
	if spec.CountOps {
		copts = append(copts, proto.CountOps())
	}
	crypto, err := proto.Setup(params, keys, spec.CertMode, copts...)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	run := &runner{spec: spec, params: params, crypto: crypto}
	return run.execute()
}

// withDefaults fills the spec's unset fields with their documented
// defaults.
func (s Spec) withDefaults() Spec {
	if s.Fault == "" {
		s.Fault = FaultCrash
	}
	if s.Inputs == "" {
		s.Inputs = InputsUnanimous
	}
	if s.CertMode == 0 {
		s.CertMode = threshold.ModeCompact
	}
	if s.Value == nil {
		s.Value = types.Value("v")
	}
	return s
}

type runner struct {
	spec   Spec
	params types.Params
	crypto *proto.Crypto
}

// adversaryFor builds the spec's adversary (nil when f=0): the
// adversary package's pattern rule, plus the spam pattern, which is the
// attacks package's phase-spam genome.
func (r *runner) adversaryFor(maxTicks types.Tick) sim.Adversary {
	if r.spec.Adversary != nil {
		return r.spec.Adversary(maxTicks)
	}
	if kind := r.spec.Protocol; r.spec.F > 0 && r.spec.Fault == FaultSpam && (kind == ProtocolBB || kind == ProtocolWBA) {
		g := attacks.PhaseSpam(kind, adversary.CrashSet(r.spec.F, false)...)
		return attacks.Compile(g, kind, Tag(kind), r.spec.Seed, maxTicks)
	}
	return adversary.ForPattern(string(r.spec.Fault), r.spec.F, r.spec.Seed)(maxTicks)
}

// input is process id's input under the spec's input policy. The
// broadcast kinds send Value (bb-via-ba a bit: 1 unless Value is one); an
// ACS proposer proposes Batch synthetic commands, deterministic per
// proposer; and the agreement kinds take Value (strong BA 1) or, under
// InputsDistinct, one value per process (strong BA alternating bits).
func (r *runner) input(id types.ProcessID) types.Value {
	spec := &r.spec
	binary := spec.Protocol == ProtocolStrongBA
	switch {
	case spec.Protocol == ProtocolBB, spec.Protocol == ProtocolDolevStrong, spec.Protocol == ProtocolEchoBB:
		return spec.Value
	case spec.Protocol == ProtocolBBViaBA && !spec.Value.IsBinary():
		return types.One
	case spec.Protocol == ProtocolBBViaBA:
		return spec.Value
	case spec.Protocol == ProtocolACS:
		cmds := make([]types.Value, max(spec.Batch, 1))
		for j := range cmds {
			cmds[j] = types.Value(fmt.Sprintf("SET a%d-%d v%d", int(id), j, j))
		}
		return acs.EncodeBatch(cmds)
	case spec.Inputs == InputsDistinct && binary:
		return types.BinaryValue(int(id)%2 == 0)
	case spec.Inputs == InputsDistinct:
		return types.Value(fmt.Sprintf("v%d", int(id)))
	case binary:
		return types.One
	}
	return spec.Value
}

// Tag is the signing tag of a harness run's protocol instance; an
// adversary that signs protocol messages itself signs under it.
func Tag(kind Protocol) string { return kind.Tag("h") }

// execute validates the spec's instance against the protocol table and
// runs it in the simulator.
func (r *runner) execute() (*Outcome, error) {
	kind := r.spec.Protocol
	cfg := protocols.Config{
		Params: r.params, Crypto: r.crypto, Tag: Tag(kind), Seed: uint64(r.spec.Seed),
		WBAPhases: r.spec.WBAPhases, DisableSilentPhases: r.spec.DisableSilentPhases,
	}
	if err := kind.Validate(cfg, r.input); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	// A solo run gets twice its instance's bound — except an ACS round,
	// whose schedule is already its exact length.
	maxTicks := 2 * kind.MaxTicks(cfg)
	if kind == ProtocolACS {
		maxTicks = kind.MaxTicks(cfg) + 4
	}
	machines := make([]proto.Machine, r.params.N)
	factory := func(id types.ProcessID) proto.Machine {
		machines[id] = kind.MustNew(cfg, id, r.input(id))
		return machines[id]
	}

	onSend := r.spec.OnSend
	var monitors []interface{ Violations() []string }
	if r.spec.Monitor {
		var hooks []func(types.Tick, sim.Message, bool)
		if user := onSend; user != nil {
			hooks = append(hooks, user)
		}
		switch kind {
		case ProtocolWBA:
			m := oracle.NewWBA(r.params, r.crypto, cfg.Tag, 0)
			monitors = append(monitors, m)
			hooks = append(hooks, m.OnSend)
		case ProtocolBB:
			m := oracle.NewWBA(r.params, r.crypto, cfg.Tag+"/wba", 0)
			monitors = append(monitors, m)
			hooks = append(hooks, m.OnSend)
		case ProtocolStrongBA:
			m := oracle.NewStrongBA(r.params, r.crypto, cfg.Tag)
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
	res, err := sim.Run(sim.Config{
		Params:      r.params,
		Crypto:      r.crypto,
		Factory:     factory,
		Adversary:   r.adversaryFor(maxTicks),
		MaxTicks:    maxTicks,
		SizeOf:      protocols.SizeOf,
		ShuffleSeed: r.spec.ShuffleSeed,
		OnSend:      onSend,
	})
	if err != nil {
		return nil, err
	}

	decision, agreement := res.Agreement()
	out := &Outcome{
		Spec:        r.spec,
		Words:       res.Report.Honest.Words,
		Messages:    res.Report.Honest.Messages,
		Signatures:  res.Report.Honest.Signatures,
		Bytes:       res.Report.Honest.Bytes,
		Ticks:       res.Ticks,
		Decided:     res.AllDecided() && !res.TimedOut,
		Agreement:   agreement,
		Decision:    decision,
		ByLayer:     res.Report.ByLayer,
		CacheHits:   res.Report.CacheHits,
		CacheMisses: res.Report.CacheMisses,
		CacheWaits:  res.Report.CacheWaits,
	}
	for _, id := range res.Honest {
		ranFallback, decidedAt := protocols.Progress(machines[id], 0)
		if ranFallback {
			out.FallbackCount++
		}
		out.DecisionTick = max(out.DecisionTick, decidedAt)
	}
	out.SignOps, out.VerifyOps = r.crypto.Ops()
	for _, m := range monitors {
		out.InvariantViolations = append(out.InvariantViolations, m.Violations()...)
	}
	return out, nil
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
