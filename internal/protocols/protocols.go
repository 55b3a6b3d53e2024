// Package protocols is the one table of the repository's machine kinds.
// Every runtime builds a protocol machine by looking its Kind up here: the
// simulator harness, the multi-session engine, the TCP transport and the
// commands and examples on top of them. For one instance of a kind,
// Validate checks every process's configuration before a run starts,
// MaxTicks bounds the instance's length without building a machine, and
// New builds one process's machine. The package also owns the one wire
// registry that decodes every kind's payloads, and the one accessor for
// what a finished machine reports beyond its output (Progress).
//
// The table holds the compositions of Figure 1 as their top-level kinds
// only: a kind that nests another (acs over bb and strongba, bb over wba,
// wba and strongba over fallback) builds its children itself.
package protocols

import (
	"errors"
	"fmt"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/baseline/committee"
	"adaptiveba/internal/baseline/dolevstrong"
	"adaptiveba/internal/baseline/echobb"
	"adaptiveba/internal/baseline/floodset"
	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/bbviaba"
	"adaptiveba/internal/core/strongba"
	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/fallback"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// Kind names one protocol of the table.
type Kind string

// The kinds.
const (
	// BB is the paper's adaptive Byzantine Broadcast (Alg. 1+2).
	BB Kind = "bb"
	// WBA is the paper's adaptive weak BA (Alg. 3+4).
	WBA Kind = "wba"
	// StrongBA is the paper's binary strong BA (Alg. 5).
	StrongBA Kind = "strongba"
	// BBViaBA is the classic reduction BB-from-strong-BA that the paper
	// recalls in Section 5 (binary values only).
	BBViaBA Kind = "bb-via-ba"
	// ACS is the BKR agreement-on-common-subset round: every process
	// proposes a batch (an acs.EncodeBatch frame), n concurrent BBs
	// disseminate them, n binary strong-BA votes decide the committed
	// subset.
	ACS Kind = "acs"
	// Fallback is A_fallback run directly (the non-adaptive strong BA used
	// as the quadratic-regime baseline), at one tick per round.
	Fallback Kind = "fallback"
	// DolevStrong is the classic BB baseline.
	DolevStrong Kind = "dolev-strong"
	// EchoBB is the naive always-quadratic BB baseline.
	EchoBB Kind = "echo-bb"
	// FloodSet is the early-stopping CRASH-fault consensus from the
	// Section 4 related-work discussion: adaptive rounds, quadratic words —
	// the mirror image of the paper's protocols. Simulator-only: it has no
	// wire codecs.
	FloodSet Kind = "floodset"
	// Committee is the King–Saia-style Õ(√n)-words-per-process
	// committee-sampling baseline (CRASH faults). Simulator-only: it has no
	// wire codecs.
	Committee Kind = "committee"
)

// ErrUnknown reports a kind the table does not hold.
var ErrUnknown = errors.New("unknown protocol")

// Config is what every process of one instance shares. Inputs are per
// process and passed to Validate and New beside it.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	// Tag domain-separates the instance's signatures; Kind.Tag spells a
	// runtime's conventional one.
	Tag string
	// Sender is the designated sender of bb, bb-via-ba, dolev-strong and
	// echo-bb (only its input is broadcast).
	Sender types.ProcessID
	// Predicate overrides weak BA's validity predicate (default: accept
	// any non-⊥ value).
	Predicate func(types.Value) bool
	// Seed is the run's seed. Committee derives its sampling seed from it
	// (public common randomness, the same at every process).
	Seed uint64
	// WBAPhases, DisableSilentPhases and QuorumOverride are the ablation
	// knobs of bb and wba (see bb.Config and wba.Config); zero runs the
	// paper's protocol.
	WBAPhases           int
	DisableSilentPhases bool
	QuorumOverride      int
}

// entry is one kind's row of the table.
type entry struct {
	kind Kind
	// short names the kind under a runtime's tag prefix (Kind.Tag).
	short string
	// check reports what build would refuse for process id; nil accepts
	// every configuration.
	check    func(c Config, id types.ProcessID, input types.Value) error
	maxTicks func(c Config) types.Tick
	build    func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error)
}

var table = [...]entry{
	{
		kind: BB, short: "bb",
		maxTicks: func(c Config) types.Tick { return bb.MaxTicks(c.Params, 0, c.WBAPhases) },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			return bb.NewMachine(bb.Config{
				Params: c.Params, Crypto: c.Crypto, ID: id, Sender: c.Sender, Input: input, Tag: c.Tag,
				WBAPhases: c.WBAPhases, DisableSilentPhases: c.DisableSilentPhases,
			}), nil
		},
	},
	{
		kind: WBA, short: "wba",
		maxTicks: func(c Config) types.Tick { return wba.MaxTicks(c.Params, c.WBAPhases) },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			pred := valid.NonBottom()
			if c.Predicate != nil {
				pred = valid.Func{PredicateName: "custom", Fn: c.Predicate}
			}
			return wba.NewMachine(wba.Config{
				Params: c.Params, Crypto: c.Crypto, ID: id, Input: input, Predicate: pred, Tag: c.Tag,
				Phases: c.WBAPhases, DisableSilentPhases: c.DisableSilentPhases, QuorumOverride: c.QuorumOverride,
			}), nil
		},
	},
	{
		kind: StrongBA, short: "sba",
		check:    func(c Config, id types.ProcessID, input types.Value) error { return c.strongba(id, input).Validate() },
		maxTicks: func(c Config) types.Tick { return strongba.MaxTicks(c.Params) },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			return built(strongba.NewMachine(c.strongba(id, input)))
		},
	},
	{
		kind: BBViaBA, short: "bbr",
		check:    func(c Config, id types.ProcessID, input types.Value) error { return c.bbviaba(id, input).Validate() },
		maxTicks: func(c Config) types.Tick { return bbviaba.MaxTicks(c.Params) },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			return built(bbviaba.NewMachine(c.bbviaba(id, input)))
		},
	},
	{
		kind: ACS, short: "acs",
		maxTicks: func(c Config) types.Tick { return acs.MaxTicks(c.Params) },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			return acs.NewMachine(acs.Config{Params: c.Params, Crypto: c.Crypto, ID: id, Input: input, Tag: c.Tag}), nil
		},
	},
	{
		// A_fallback decides after t+1 rounds; the bound keeps the slack its
		// solo runs have always been budgeted with.
		kind: Fallback, short: "fb",
		maxTicks: func(c Config) types.Tick { return types.Tick(c.Params.T+4) * 2 },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			return fallback.NewMachine(fallback.Config{
				Params: c.Params, Crypto: c.Crypto, ID: id, Input: input, Tag: c.Tag, RoundDur: 1,
			}), nil
		},
	},
	{
		kind: DolevStrong, short: "ds",
		maxTicks: func(c Config) types.Tick { return types.Tick(c.Params.T + 4) },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			return dolevstrong.NewMachine(dolevstrong.Config{
				Params: c.Params, Crypto: c.Crypto, ID: id, Sender: c.Sender, Input: input, Tag: c.Tag,
			}), nil
		},
	},
	{
		kind: EchoBB, short: "echo",
		maxTicks: func(Config) types.Tick { return 10 },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			return echobb.NewMachine(echobb.Config{
				Params: c.Params, Crypto: c.Crypto, ID: id, Sender: c.Sender, Input: input, Tag: c.Tag,
			}), nil
		},
	},
	{
		kind: FloodSet, short: "fs",
		maxTicks: func(c Config) types.Tick { return types.Tick(c.Params.T + 6) },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			return floodset.NewMachine(floodset.Config{Params: c.Params, ID: id, Input: input}), nil
		},
	},
	{
		kind: Committee, short: "cm",
		maxTicks: func(c Config) types.Tick { return types.Tick(committee.Size(c.Params.N) + 8) },
		build: func(c Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
			return committee.NewMachine(committee.Config{Params: c.Params, ID: id, Input: input, Seed: c.Seed + committeeSalt}), nil
		},
	},
}

// committeeSalt separates committee's sampling seed from the run seed's
// other uses ("cmte").
const committeeSalt = 0x636d7465

func (c Config) strongba(id types.ProcessID, input types.Value) strongba.Config {
	return strongba.Config{Params: c.Params, Crypto: c.Crypto, ID: id, Input: input, Tag: c.Tag}
}

func (c Config) bbviaba(id types.ProcessID, input types.Value) bbviaba.Config {
	return bbviaba.Config{Params: c.Params, Crypto: c.Crypto, ID: id, Sender: c.Sender, Input: input, Tag: c.Tag}
}

// built adapts a constructor that refuses invalid configurations, so a
// refusal is a nil interface rather than a typed nil.
func built[M proto.Machine](m M, err error) (proto.Machine, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Kinds lists every kind of the table, in table order.
func Kinds() []Kind {
	out := make([]Kind, len(table))
	for i := range table {
		out[i] = table[i].kind
	}
	return out
}

func (k Kind) entry() (*entry, error) {
	for i := range table {
		if table[i].kind == k {
			return &table[i], nil
		}
	}
	return nil, fmt.Errorf("%w %q", ErrUnknown, k)
}

// Tag is the kind's conventional signing tag below a runtime's prefix:
// "h/sba" for strong BA in the harness, "node/bb" for BB on a TCP node.
func (k Kind) Tag(prefix string) string {
	e, err := k.entry()
	if err != nil {
		return prefix + "/" + string(k)
	}
	return prefix + "/" + e.short
}

// Validate checks an instance for every process up front — input(id) is
// process id's input — so a runtime rejects a bad configuration before
// its first tick, whichever process it belongs to. A configuration that
// passes builds at every process.
func (k Kind) Validate(cfg Config, input func(types.ProcessID) types.Value) error {
	e, err := k.entry()
	if err != nil || e.check == nil {
		return err
	}
	for id := 0; id < cfg.Params.N; id++ {
		if err := e.check(cfg, types.ProcessID(id), input(types.ProcessID(id))); err != nil {
			return fmt.Errorf("process %d: %w", id, err)
		}
	}
	return nil
}

// MaxTicks bounds an instance's length from Begin, fallback included: the
// length of its session on the engine's schedule. It is a function of the
// configuration alone, so a schedule is sized without building a machine.
// An unknown kind has no bound (0).
func (k Kind) MaxTicks(cfg Config) types.Tick {
	e, err := k.entry()
	if err != nil {
		return 0
	}
	return e.maxTicks(cfg)
}

// New builds process id's machine of the instance.
func (k Kind) New(cfg Config, id types.ProcessID, input types.Value) (proto.Machine, error) {
	e, err := k.entry()
	if err != nil {
		return nil, err
	}
	return e.build(cfg, id, input)
}

// MustNew is New for a runtime's machine factory, which has no error
// path: the runtime has run Validate on the same instance and inputs,
// which refuses everything New would.
func (k Kind) MustNew(cfg Config, id types.ProcessID, input types.Value) proto.Machine {
	m, err := k.New(cfg, id, input)
	if err != nil {
		panic(fmt.Sprintf("protocols: %s passed Validate but not New: %v", k, err))
	}
	return m
}

// Registry returns a registry decoding every kind's payloads, nested
// layers included. floodset and committee are simulator-only and have
// none.
func Registry() *wire.Registry {
	reg := wire.NewRegistry()
	acs.RegisterWire(reg)
	bb.RegisterWire(reg)
	bbviaba.RegisterWire(reg)
	wba.RegisterWire(reg)
	strongba.RegisterWire(reg)
	dolevstrong.RegisterWire(reg)
	echobb.RegisterWire(reg)
	return reg
}

// Progress reports what a finished machine that began at tick begin tells
// beyond its output: whether it ran A_fallback, and when it decided, in
// ticks since begin — the paper's protocols and acs say at which tick, the
// crash baselines in which of their one-tick rounds, and the kinds that do
// not say report 0.
func Progress(m proto.Machine, begin types.Tick) (ranFallback bool, decidedAt types.Tick) {
	if fb, ok := m.(interface{ RanFallback() bool }); ok {
		ranFallback = fb.RanFallback()
	}
	switch m := m.(type) {
	case interface{ DecidedAtTick() types.Tick }:
		if at := m.DecidedAtTick(); at > begin {
			decidedAt = at - begin
		}
	case interface{ Rounds() types.Round }:
		decidedAt = types.Tick(m.Rounds())
	}
	return ranFallback, decidedAt
}
