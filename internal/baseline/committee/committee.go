// Package committee implements a committee-sampling agreement baseline in
// the spirit of King–Saia's "Breaking the O(n²) Bit Barrier" (PODC 2010,
// arXiv:1002.4561): instead of every process talking to every process, a
// Õ(√n)-sized committee is sampled from a common seed, everyone ships its
// input to the committee, the committee runs an early-stopping flood
// agreement among itself, and the members announce the outcome to all.
// Total traffic is n·c + rounds·c² + c·n words with c = ⌈2√n⌉ — Õ(n^1.5)
// in total, Õ(√n) per process — versus Θ(n²) per round for full flooding.
//
// This is the paper's natural large-n rival: committee sampling beats the
// O(n²) total-word floor regardless of f, while the adaptive protocol
// pays O(n(f+1)) — cheaper exactly when f ≲ √n. BENCH_scale.json plots
// the crossover.
//
// Fault model: CRASH failures only, like the floodset baseline (King–Saia
// handle Byzantine faults with spectral sampling defenses that are out of
// scope here; this baseline keeps their cost structure, not their
// adversarial machinery). The run terminates as long as at least one
// committee member survives; sampling is uniform from the seed, so an
// f-crash pattern leaves ≈ c·(n−f)/n members alive in expectation.
package committee

import (
	"math"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// Input ships a process's initial value to a committee member (round 1).
type Input struct {
	V types.Value
}

// Type implements proto.Payload.
func (Input) Type() string { return "committee/input" }

// Words implements proto.Payload.
func (Input) Words() int { return 1 }

// Flood is the intra-committee per-round message: the values its sender
// learned since its previous flood (usually empty — a heartbeat).
type Flood struct {
	Values []types.Value
}

// Type implements proto.Payload.
func (Flood) Type() string { return "committee/flood" }

// Words implements proto.Payload: one word per carried value, at least 1.
func (f Flood) Words() int {
	if len(f.Values) == 0 {
		return 1
	}
	return len(f.Values)
}

// Announce carries a committee decision to every process.
type Announce struct {
	V types.Value
}

// Type implements proto.Payload.
func (Announce) Type() string { return "committee/announce" }

// Words implements proto.Payload.
func (Announce) Words() int { return 1 }

// Size returns the sampled committee size for n processes: ⌈2√n⌉, capped
// at n. The constant 2 stands in for King–Saia's polylog supermajority
// margin at the scales the benchmark sweeps.
func Size(n int) int {
	if n <= 0 {
		return 0
	}
	c := int(math.Ceil(2 * math.Sqrt(float64(n))))
	if c > n {
		c = n
	}
	return c
}

// splitmix64 is the standard 64-bit mix; every process derives the same
// committee from the same seed with no coordination.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sample deterministically draws the Size(n)-member committee for
// (n, seed). All processes call it with the common seed and agree on the
// membership set without any communication.
func Sample(n int, seed uint64) *types.BitSet {
	members := types.NewBitSet(n)
	c := Size(n)
	x := seed
	for members.Count() < c {
		x = splitmix64(x)
		members.Add(types.ProcessID(x % uint64(n)))
	}
	return members
}

// Config parameterizes one process.
type Config struct {
	Params types.Params
	ID     types.ProcessID
	Input  types.Value
	// Seed is the common committee-sampling seed (public randomness).
	Seed uint64
}

// Machine implements proto.Machine.
type Machine struct {
	cfg      Config
	clock    proto.RoundClock
	members  *types.BitSet
	isMember bool

	known map[string]bool
	fresh []types.Value // learned since the last intra-committee flood

	// Round-r flood-sender sets, in the same 3-slot reused-bitset ring
	// the floodset baseline uses (the clean-round rule only consults the
	// last two rounds).
	sendSets  [3]*types.BitSet
	sendRound [3]types.Round
	adopted   types.Value // a decision received via Announce

	decided   bool
	announced bool
	decision  types.Value
	rounds    types.Round // decision round (early-stopping metric)
}

var _ proto.Machine = (*Machine)(nil)

// NewMachine builds the machine.
func NewMachine(cfg Config) *Machine {
	m := &Machine{
		cfg:     cfg,
		members: Sample(cfg.Params.N, cfg.Seed),
		known:   make(map[string]bool),
	}
	m.isMember = m.members.Has(cfg.ID)
	for i := range m.sendRound {
		m.sendRound[i] = -1
	}
	if m.isMember {
		m.learn(cfg.Input)
	}
	return m
}

// Members exposes the sampled committee set (shared, do not mutate).
func (m *Machine) Members() *types.BitSet { return m.members }

// Rounds returns the round in which the process decided.
func (m *Machine) Rounds() types.Round { return m.rounds }

// learn records a value, tracking novelty for the next flood.
func (m *Machine) learn(v types.Value) {
	if v.IsBottom() || m.known[string(v)] {
		return
	}
	m.known[string(v)] = true
	m.fresh = append(m.fresh, v.Clone())
}

// Begin implements proto.Machine: round 1 ships the input to the
// committee (n·c words across all processes).
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.clock = proto.NewRoundClock(now, 1)
	return m.toCommittee(outs, Input{V: m.cfg.Input})
}

// toCommittee appends one send of payload per committee member.
func (m *Machine) toCommittee(outs []proto.Outgoing, payload proto.Payload) []proto.Outgoing {
	for id, ok := m.members.NextSet(0); ok; id, ok = m.members.NextSet(int(id) + 1) {
		outs = proto.AppendUnicast(outs, id, "", payload)
	}
	return outs
}

// floodCommittee sends the fresh values to every committee member.
func (m *Machine) floodCommittee(outs []proto.Outgoing) []proto.Outgoing {
	payload := Flood{Values: m.fresh}
	m.fresh = nil
	return m.toCommittee(outs, payload)
}

// announce broadcasts the decision to all n processes.
func (m *Machine) announce(outs []proto.Outgoing) []proto.Outgoing {
	m.announced = true
	return proto.AppendBroadcast(outs, m.cfg.Params, "", Announce{V: m.decision})
}

// sendersMark returns the (reset-on-reuse) flood-sender set for round r.
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

// sendersAt returns round r's sender set, or nil if none arrived.
func (m *Machine) sendersAt(r types.Round) *types.BitSet {
	i := (int(r%3) + 3) % 3
	if m.sendSets[i] == nil || m.sendRound[i] != r {
		return nil
	}
	return m.sendSets[i]
}

// cleanRound reports whether round r brought no NEW member failures:
// every member whose flood arrived in round r-1 also flooded in round r.
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
	var best types.Value
	for k := range m.known {
		if best == nil || k < string(best) {
			best = types.Value(k)
		}
	}
	if best == nil {
		return types.Bottom
	}
	return best.Clone()
}

// decide records the decision and the round it happened in.
func (m *Machine) decide(r types.Round, v types.Value) {
	m.decided = true
	m.decision = v.Clone()
	m.rounds = r
}

// Tick implements proto.Machine.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	r, boundary := m.clock.BoundaryAt(now)
	prev := m.clock.RoundAt(now) - 1
	if boundary {
		prev = r - 1
	}
	for _, in := range inbox {
		switch p := in.Payload.(type) {
		case Input:
			if m.isMember && !m.decided {
				m.learn(p.V)
			}
		case Flood:
			if m.isMember {
				m.sendersMark(prev).Add(in.From)
				for _, v := range p.Values {
					m.learn(v)
				}
			}
		case Announce:
			if m.adopted == nil {
				m.adopted = p.V.Clone()
			}
		}
	}
	if !boundary {
		return outs
	}
	if m.decided {
		if m.isMember && !m.announced {
			return m.announce(outs)
		}
		return outs
	}
	if !m.isMember {
		if m.adopted != nil {
			m.decide(r, m.adopted)
		}
		return outs
	}
	// Member at the boundary of round r: round r-1's floods are in.
	switch {
	case m.adopted != nil:
		// Another member decided and announced: its view had converged.
		m.decide(r, m.adopted)
		return m.announce(outs)
	case r >= 4 && m.cleanRound(r-1):
		m.decide(r, m.minKnown())
		return m.announce(outs)
	case int(r) > Size(m.cfg.Params.N)+2:
		// Worst-case cap: after c rounds of intra-committee flooding
		// every surviving member's set has converged regardless of the
		// crash pattern (at most c−1 members can have crashed).
		m.decide(r, m.minKnown())
		return m.announce(outs)
	default:
		return m.floodCommittee(outs)
	}
}

// Output implements proto.Machine.
func (m *Machine) Output() (types.Value, bool) { return m.decision, m.decided }

// Done implements proto.Machine.
func (m *Machine) Done() bool {
	return m.decided && (!m.isMember || m.announced)
}
