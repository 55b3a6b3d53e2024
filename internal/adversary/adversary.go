// Package adversary is a library of Byzantine behaviours for the
// simulator. The paper's adversary is adaptive, rushing, and fully
// malicious; the behaviours here cover the spectrum the experiments and
// tests need:
//
//   - Crash / CrashAt: processes fail by stopping (the "common case" the
//     adaptive complexity is optimized for).
//   - Mimic: corrupted processes run attacker-chosen machines — e.g. the
//     honest protocol with a conflicting input, or a modified protocol.
//   - Replay: records honest traffic and re-sends stale payloads from
//     corrupted identities to random targets at random later ticks; a
//     generic freshness attack that certificates and phase tags must
//     withstand.
//
// Protocol-aware attacks live in the attacks subpackage, which may import
// the protocol packages: every attack there is a compiled genome (phase
// and help spam, the weak BA leader coalition, BB vetting equivocation,
// the flood chain). It also holds the table of named fault patterns
// (attacks.Patterns), which builds each name from the behaviours here or
// from a genome.
package adversary

import (
	"math/rand"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// Core provides the boilerplate of a sim.Adversary: a corruption schedule
// and access to the environment. Behaviours embed it and override only the
// hooks they need, and each states its own horizon: Core has no Quiescent,
// so a behaviour without one is not a sim.Adversary.
//
// # Lifecycle
//
// The engine drives every adversary through the same call sequence:
//
//  1. Init(env) — once, before the run, with the setup artifacts
//     (parameters and crypto). Core stores env for the behaviour.
//  2. Corruptions() — once, after Init. The engine validates the
//     schedule (at most t distinct processes) and applies each
//     corruption at its tick; a corrupted process's honest machine
//     stops being stepped from that tick on.
//  3. Per tick, the Observer hook: Observe(now, id, inbox) once per
//     currently-corrupted id, exposing the messages that identity
//     received. Core's default discards them — a behaviour that acts on
//     what it sees (Mimic, a compiled attacks.Genome) overrides
//     this; pure crash behaviours keep the no-op.
//  4. Per tick, the Actor hook: Act(now, honest) after ALL honest
//     machines produced their tick-now traffic — the adversary is
//     rushing: it sees the honest sends of the current tick before
//     committing its own. Returned messages must originate from
//     currently-corrupted ids (the engine rejects forgeries) and are
//     delivered at now+1 alongside the honest traffic. Core's default
//     returns nil: corrupted processes stay mute, which makes an
//     unoverridden Core + schedule exactly a crash adversary.
//  5. Quiescent(now) — polled when every honest machine is done; the
//     run ends only when the adversary also reports quiescent (and no
//     scheduled corruption is still pending). A quiescent adversary is
//     also not called at the ticks a run skips because no machine is due
//     and nothing is in flight. So every behaviour reports quiescent only
//     once it has no action left at a later tick: Crash at once, Replay
//     and the attack library after their horizon. Mimic reports quiescent
//     at once and bounds the skip with its puppets' wake (proto.Waker).
//
// Observe and Act receive slices the engine reuses across ticks:
// implementations that retain messages must copy them.
type Core struct {
	Env      sim.Env
	Schedule []sim.Corruption
}

// Init implements sim.Adversary (lifecycle step 1).
func (c *Core) Init(env sim.Env) { c.Env = env }

// Corruptions implements sim.Adversary (lifecycle step 2).
func (c *Core) Corruptions() []sim.Corruption { return c.Schedule }

// Observe implements sim.Adversary (default Observer: ignore inboxes).
func (c *Core) Observe(types.Tick, types.ProcessID, []proto.Incoming) {}

// Act implements sim.Adversary (default Actor: stay silent).
func (c *Core) Act(types.Tick, []sim.Message) []sim.Message { return nil }

// Corrupted reports whether id is in the schedule.
func (c *Core) Corrupted(id types.ProcessID) bool {
	for _, cor := range c.Schedule {
		if cor.ID == id {
			return true
		}
	}
	return false
}

// schedule builds an immediate corruption schedule.
func schedule(ids []types.ProcessID) []sim.Corruption {
	cs := make([]sim.Corruption, len(ids))
	for i, id := range ids {
		cs[i] = sim.Corruption{ID: id}
	}
	return cs
}

// Crash fails the given processes by stopping them before the run starts.
type Crash struct {
	Core
}

var _ sim.Adversary = (*Crash)(nil)

// Quiescent implements sim.Adversary: crashed processes never act.
func (c *Crash) Quiescent(types.Tick) bool { return true }

// NewCrash crashes ids at tick 0.
func NewCrash(ids ...types.ProcessID) *Crash {
	return &Crash{Core: Core{Schedule: schedule(ids)}}
}

// NewCrashAt crashes processes per the given tick schedule.
func NewCrashAt(at map[types.ProcessID]types.Tick) *Crash {
	cs := make([]sim.Corruption, 0, len(at))
	for id, tick := range at {
		cs = append(cs, sim.Corruption{ID: id, At: tick})
	}
	return &Crash{Core: Core{Schedule: cs}}
}

// CrashSet is the repository's one rule for which f (≤ t) processes a
// fault pattern corrupts. By default they are 1..f: the first f rotating
// phase leaders, sparing p0 — the BB sender and the first strong-BA
// leader — which maximizes the non-silent phases. With leader set they
// are 0..f−1, p0 included. The named fault patterns (attacks.Patterns),
// the engine's crash set and the service's honest proposers all ask here.
func CrashSet(f int, leader bool) []types.ProcessID {
	first := 1
	if leader {
		first = 0
	}
	ids := make([]types.ProcessID, f)
	for i := range ids {
		ids[i] = types.ProcessID(first + i)
	}
	return ids
}

// Horizon is the tick before which an adversary built against a run's
// tick budget acts: half the budget, at least one tick. A solo run's
// budget is twice its instance's bound, so the horizon keeps every move
// inside the run's natural length — a late move delays the run, it never
// stalls quiescence.
func Horizon(maxTicks types.Tick) types.Tick { return max(maxTicks/2, 1) }

// Mimic runs attacker-chosen machines for the corrupted processes. The
// machines see exactly the messages addressed to their identity and their
// sends are emitted from it — i.e. the corrupted processes follow the
// attacker's protocol instead of the honest one.
type Mimic struct {
	Core
	// Factory builds the machine for each corrupted id.
	Factory func(id types.ProcessID) proto.Machine

	machines map[types.ProcessID]proto.Machine
	inboxes  map[types.ProcessID][]proto.Incoming
	order    []types.ProcessID
	outs     []proto.Outgoing // the puppets' send buffer, reused every tick
	wake     types.Tick       // the puppets' earliest wake after the last Act
}

var (
	_ sim.Adversary = (*Mimic)(nil)
	_ proto.Waker   = (*Mimic)(nil)
)

// NewMimic corrupts ids and drives them with factory's machines.
func NewMimic(factory func(id types.ProcessID) proto.Machine, ids ...types.ProcessID) *Mimic {
	return &Mimic{
		Core:     Core{Schedule: schedule(ids)},
		Factory:  factory,
		machines: make(map[types.ProcessID]proto.Machine),
		inboxes:  make(map[types.ProcessID][]proto.Incoming),
		order:    append([]types.ProcessID(nil), ids...),
	}
}

// Observe implements sim.Adversary.
func (m *Mimic) Observe(_ types.Tick, to types.ProcessID, inbox []proto.Incoming) {
	m.inboxes[to] = append(m.inboxes[to], inbox...)
}

// Act implements sim.Adversary.
func (m *Mimic) Act(now types.Tick, _ []sim.Message) []sim.Message {
	var msgs []sim.Message
	m.wake = proto.Never
	for _, id := range m.order {
		mach, ok := m.machines[id]
		if !ok {
			mach = m.Factory(id)
			m.machines[id] = mach
			m.outs = mach.Begin(now, m.outs[:0])
		} else {
			m.outs = mach.Tick(now, m.inboxes[id], m.outs[:0])
		}
		m.inboxes[id] = m.inboxes[id][:0]
		m.wake = min(m.wake, proto.WakeOf(mach, now))
		for _, o := range m.outs {
			msgs = append(msgs, sim.Message{From: id, To: o.To, Session: o.Session, Payload: o.Payload})
		}
	}
	return msgs
}

// Quiescent implements sim.Adversary: Mimic is quiescent whatever its
// puppets still mean to do, and Wake keeps a run that skips the ticks at
// which nothing is in flight from skipping past their next action.
func (m *Mimic) Quiescent(types.Tick) bool { return true }

// Wake implements proto.Waker: the puppets' earliest wake, which bounds
// how far a run skips.
func (m *Mimic) Wake() types.Tick { return m.wake }

// Replay records honest traffic and re-sends stale payloads from corrupted
// identities to random recipients at random later ticks. Deterministic
// given the seed.
type Replay struct {
	Core
	rng      *rand.Rand
	recorded []sim.Message
	// Rate is the number of replayed messages per tick (default 2).
	Rate int
	// Horizon is the last tick at which the replayer acts; after it the
	// adversary reports quiescent. Required so runs terminate.
	Horizon types.Tick
}

var _ sim.Adversary = (*Replay)(nil)

// NewReplay corrupts ids and replays traffic until horizon.
func NewReplay(seed int64, horizon types.Tick, ids ...types.ProcessID) *Replay {
	return &Replay{
		Core:    Core{Schedule: schedule(ids)},
		rng:     rand.New(rand.NewSource(seed)),
		Rate:    2,
		Horizon: horizon,
	}
}

// Act implements sim.Adversary.
func (r *Replay) Act(now types.Tick, honest []sim.Message) []sim.Message {
	if now > r.Horizon {
		// Quiescent: recording past the horizon would only grow the
		// buffer without ever being replayed (unbounded memory on long
		// large-n runs).
		return nil
	}
	r.recorded = append(r.recorded, honest...)
	if len(r.recorded) == 0 || len(r.Schedule) == 0 {
		return nil
	}
	var msgs []sim.Message
	for i := 0; i < r.Rate; i++ {
		src := r.recorded[r.rng.Intn(len(r.recorded))]
		from := r.Schedule[r.rng.Intn(len(r.Schedule))].ID
		to := types.ProcessID(r.rng.Intn(r.Env.Params.N))
		msgs = append(msgs, sim.Message{From: from, To: to, Session: src.Session, Payload: src.Payload})
	}
	return msgs
}

// Quiescent implements sim.Adversary.
func (r *Replay) Quiescent(now types.Tick) bool { return now > r.Horizon }
