package attacks

import (
	"fmt"
	"math"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// Pattern is a named fault pattern: what the f corrupted processes of a
// run, adversary.CrashSet(f, leader), do.
type Pattern struct {
	Name string
	// Crash marks a crash at tick 0, whose corrupted set can persist
	// across the sessions of one deployment: what multi-session runs take.
	Crash  bool
	leader bool
	maxF   int // the most processes the pattern can name (0: no bound)
	build  func(kind protocols.Kind, tag string, ids []types.ProcessID, seed int64, maxTicks types.Tick) sim.Adversary
}

// Patterns is the repository's one table of named fault patterns, in the
// order the commands list them.
var Patterns = []Pattern{
	// Processes 1..f, the first f rotating phase leaders, stop at tick 0.
	// Sparing p0, the BB sender and the strong BA leader, maximizes the
	// non-silent phases.
	{Name: "crash", Crash: true, build: crash},
	// Processes 0..f−1 stop at tick 0, p0 included.
	{Name: "crash-leader", Crash: true, leader: true, build: crash},
	// A freshness attack: stale honest traffic replayed from the corrupted
	// processes until the run's horizon.
	{Name: "replay", build: func(_ protocols.Kind, _ string, ids []types.ProcessID, seed int64, maxTicks types.Tick) sim.Adversary {
		return adversary.NewReplay(seed, adversary.Horizon(maxTicks), ids...)
	}},
	// Phase spam, the worst-case run family behind the O(n(f+1)) bound, on
	// BB and weak BA, whose genes name processes by byte; a crash on every
	// other kind.
	{Name: "spam", maxF: math.MaxUint8, build: func(kind protocols.Kind, tag string, ids []types.ProcessID, seed int64, maxTicks types.Tick) sim.Adversary {
		if kind != protocols.BB && kind != protocols.WBA {
			return crash(kind, tag, ids, seed, maxTicks)
		}
		return Compile(PhaseSpam(kind, ids...), kind, tag, seed, maxTicks)
	}},
	// The corrupted processes stop one per tick, the first at tick 1: the
	// worst case for early-stopping round complexity.
	{Name: "stagger", build: func(_ protocols.Kind, _ string, ids []types.ProcessID, _ int64, _ types.Tick) sim.Adversary {
		at := make(map[types.ProcessID]types.Tick, len(ids))
		for i, id := range ids {
			at[id] = types.Tick(i + 1)
		}
		return adversary.NewCrashAt(at)
	}},
}

// crash stops the corrupted processes at tick 0.
func crash(_ protocols.Kind, _ string, ids []types.ProcessID, _ int64, _ types.Tick) sim.Adversary {
	return adversary.NewCrash(ids...)
}

// PatternNamed looks name up in Patterns; the empty name is "crash".
func PatternNamed(name string) (Pattern, bool) {
	for _, p := range Patterns {
		if p.Name == name || name == "" && p.Name == "crash" {
			return p, true
		}
	}
	return Pattern{}, false
}

// Build returns what builds the pattern's adversary for a run of kind
// under signing tag with f corrupted processes, against the run's tick
// budget: nil when f = 0. Only spam reads kind and tag, and only replay
// and spam read seed.
func (p Pattern) Build(kind protocols.Kind, tag string, f int, seed int64) (func(maxTicks types.Tick) sim.Adversary, error) {
	if p.maxF > 0 && f > p.maxF {
		return nil, fmt.Errorf("%s corrupts at most %d processes, f=%d", p.Name, p.maxF, f)
	}
	return func(maxTicks types.Tick) sim.Adversary {
		if f <= 0 {
			return nil
		}
		return p.build(kind, tag, adversary.CrashSet(f, p.leader), seed, maxTicks)
	}, nil
}
