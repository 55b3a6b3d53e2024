// Package floodset implements the classic early-stopping crash-fault
// consensus (FloodSet with the clean-round decision rule, in the spirit
// of Dolev–Reischuk–Strong [10] as discussed in the paper's Section 4):
// every process floods the values it knows every round, watches which
// processes are still sending, and decides after the first CLEAN round —
// a round in which no new failure is observed — at which point the
// surviving sets have provably converged. With f staggered crashes the
// first clean round can be delayed to round f+1: decisions take
// min(f+2, t+2) rounds.
//
// It exists as the related-work contrast the paper draws: thirty years of
// "adaptive" consensus meant adaptive ROUND complexity, while the word
// complexity stayed Θ(n²) per round. The paper's protocols flip the
// trade: word complexity O(n(f+1)), round complexity up to t+1 phases.
//
// Fault model: CRASH failures only (a faulty process may send to an
// arbitrary subset of recipients in its final round, then stays silent —
// the classic mid-broadcast crash). Byzantine behaviour is out of scope
// for this baseline: equivocation breaks it, and the tests do not pretend
// otherwise. Deciders announce their decision in one final flood, which
// undecided processes adopt; under crash faults at most one decision
// value can circulate (all deciders decide the minimum of the converged
// set).
package floodset

import (
	"sort"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// Flood is the per-round message: the values its sender learned since its
// previous flood (usually empty — a heartbeat), plus the sender's
// decision once it has one.
type Flood struct {
	Values   []types.Value
	Decision types.Value // nil until the sender decided
}

// Type implements proto.Payload.
func (Flood) Type() string { return "floodset/flood" }

// Words implements proto.Payload: one word per carried value, at least 1.
func (f Flood) Words() int {
	w := len(f.Values)
	if !f.Decision.IsBottom() {
		w++
	}
	if w == 0 {
		return 1
	}
	return w
}

// Config parameterizes one process.
type Config struct {
	Params types.Params
	ID     types.ProcessID
	Input  types.Value
}

// Machine implements proto.Machine.
type Machine struct {
	cfg   Config
	clock proto.RoundClock

	known map[string]bool
	fresh []types.Value // learned since the last flood

	// Round-r sender sets live in a 3-slot ring of reused bitsets
	// (cleanRound at the boundary of round r only ever consults rounds
	// r-2 and r-1, so three slots cover writer + both readers without
	// the per-round map and BitSet allocations the first version paid —
	// at n = 4096 that was 512 B × rounds × n of garbage).
	sendSets  [3]*types.BitSet
	sendRound [3]types.Round
	adopted   types.Value // a decision received from a peer

	decided   bool
	announced bool
	decision  types.Value
	rounds    types.Round // decision round (early-stopping metric)
}

var _ proto.Machine = (*Machine)(nil)

// NewMachine builds the machine.
func NewMachine(cfg Config) *Machine {
	m := &Machine{
		cfg:   cfg,
		known: make(map[string]bool),
	}
	for i := range m.sendRound {
		m.sendRound[i] = -1
	}
	m.learn(cfg.Input)
	return m
}

// Rounds returns the round in which the process decided.
func (m *Machine) Rounds() types.Round { return m.rounds }

// learn records a value, tracking novelty.
func (m *Machine) learn(v types.Value) {
	if v.IsBottom() || m.known[string(v)] {
		return
	}
	m.known[string(v)] = true
	m.fresh = append(m.fresh, v.Clone())
}

// Begin implements proto.Machine: round 1 floods the input.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.clock = proto.NewRoundClock(now, 1)
	return m.flood(nil, outs)
}

// flood broadcasts the fresh values (and optionally a decision) and
// resets the novelty tracker.
func (m *Machine) flood(decision types.Value, outs []proto.Outgoing) []proto.Outgoing {
	payload := Flood{Values: m.fresh, Decision: decision}
	m.fresh = nil
	return proto.AppendBroadcast(outs, m.cfg.Params, "", payload)
}

// sendersMark returns the (reset-on-reuse) sender set for round r.
func (m *Machine) sendersMark(r types.Round) *types.BitSet {
	i := (int(r%3) + 3) % 3
	if m.sendSets[i] == nil {
		m.sendSets[i] = types.NewBitSet(m.cfg.Params.N)
	} else if m.sendRound[i] != r {
		m.sendSets[i].Reset()
	}
	m.sendRound[i] = r
	return m.sendSets[i]
}

// sendersAt returns round r's sender set, or nil if none arrived (or its
// slot was already recycled — only possible for rounds cleanRound no
// longer consults).
func (m *Machine) sendersAt(r types.Round) *types.BitSet {
	i := (int(r%3) + 3) % 3
	if m.sendSets[i] == nil || m.sendRound[i] != r {
		return nil
	}
	return m.sendSets[i]
}

// Tick implements proto.Machine.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	r, boundary := m.clock.BoundaryAt(now)
	for _, in := range inbox {
		f, ok := in.Payload.(Flood)
		if !ok {
			continue
		}
		// A flood arriving at the boundary of round r was sent in round
		// r-1; mid-round arrivals (impossible for honest ticks with
		// duration-1 rounds) would also belong to the previous round.
		prev := m.clock.RoundAt(now) - 1
		if boundary {
			prev = r - 1
		}
		m.sendersMark(prev).Add(in.From)
		for _, v := range f.Values {
			m.learn(v)
		}
		if !f.Decision.IsBottom() && m.adopted == nil {
			m.adopted = f.Decision.Clone()
		}
	}
	if !boundary {
		return outs
	}
	if m.decided {
		if !m.announced {
			m.announced = true
			return m.flood(m.decision, outs)
		}
		return outs
	}
	// Boundary of round r: round r-1's floods are in.
	switch {
	case m.adopted != nil:
		// A peer decided: its set had converged, adopt its decision.
		m.decide(r, m.adopted)
		return m.flood(m.decision, outs)
	case r >= 3 && m.cleanRound(r-1):
		m.decide(r, m.minKnown())
		return m.flood(m.decision, outs)
	case int(r) > m.cfg.Params.T+2:
		// Worst-case cap: after t+1 rounds of flooding every value has
		// propagated regardless of the failure pattern.
		m.decide(r, m.minKnown())
		return m.flood(m.decision, outs)
	default:
		return m.flood(nil, outs)
	}
}

// cleanRound reports whether round r brought no NEW failures: everyone
// who sent in round r-1 also sent in round r (checked word-wise, no
// member materialization).
func (m *Machine) cleanRound(r types.Round) bool {
	prev, cur := m.sendersAt(r-1), m.sendersAt(r)
	if prev == nil {
		return false
	}
	if cur == nil {
		return prev.Count() == 0
	}
	return cur.ContainsAll(prev)
}

// minKnown picks the canonical minimum of the converged set.
func (m *Machine) minKnown() types.Value {
	keys := make([]string, 0, len(m.known))
	for k := range m.known {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return types.Bottom
	}
	sort.Strings(keys)
	return types.Value(keys[0]).Clone()
}

// decide records the decision and the round it happened in.
func (m *Machine) decide(r types.Round, v types.Value) {
	m.decided = true
	m.decision = v.Clone()
	m.rounds = r - 1 // decided on round r-1's evidence
}

// Output implements proto.Machine.
func (m *Machine) Output() (types.Value, bool) { return m.decision, m.decided }

// Done implements proto.Machine.
func (m *Machine) Done() bool { return m.decided && m.announced }
