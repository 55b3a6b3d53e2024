// Package attacks contains protocol-aware Byzantine behaviours. They live
// apart from the generic package adversary because they import the
// protocol packages (the generic behaviours are protocol-agnostic).
//
// The headline attack is phase spam: corrupted processes initiate their
// rotating-leader phases — asking every correct process for help or votes
// — and then ignore the answers, so each corrupted leader burns Θ(n)
// honest words without making progress. This is exactly the run family
// behind the paper's O(n(f+1)) upper bound; with plain crashes the
// adaptive protocols stay at O(n) regardless of f, because a crashed
// leader's phase is silent.
package attacks

import (
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// WBAPhaseSpam corrupts the given processes for a standalone weak BA run
// (session root ""). Each corrupted process p_j initiates weak BA phase j
// with a proposal and ignores the votes.
type WBAPhaseSpam struct {
	adversary.Core
	// Value is the spammed proposal; it must satisfy the run's validity
	// predicate for honest processes to vote (and thus pay words).
	Value types.Value
	// Session prefixes the spammed messages (empty for standalone runs).
	Session string
	// StartTick is the tick at which weak BA round 1 begins (0 for
	// standalone runs).
	StartTick types.Tick
}

var _ sim.Adversary = (*WBAPhaseSpam)(nil)

// NewWBAPhaseSpam corrupts ids (each id should be ≤ t+1 so that it leads
// a weak BA phase).
func NewWBAPhaseSpam(value types.Value, ids ...types.ProcessID) *WBAPhaseSpam {
	a := &WBAPhaseSpam{Value: value}
	for _, id := range ids {
		a.Schedule = append(a.Schedule, sim.Corruption{ID: id})
	}
	return a
}

// Act implements sim.Adversary: at the first tick of phase j (led by p_j),
// broadcast a proposal from the corrupted leader.
func (a *WBAPhaseSpam) Act(now types.Tick, _ []sim.Message) []sim.Message {
	var msgs []sim.Message
	for _, c := range a.Schedule {
		phase := int(c.ID) // p_j leads phase j
		if phase < 1 || phase > a.Env.Params.T+1 {
			continue
		}
		if now != a.StartTick+wba.PhaseStart(phase) {
			continue
		}
		for i := 0; i < a.Env.Params.N; i++ {
			msgs = append(msgs, sim.Message{
				From:    c.ID,
				To:      types.ProcessID(i),
				Session: a.Session,
				Payload: wba.Propose{Phase: phase, V: a.Value},
			})
		}
	}
	return msgs
}

// BBPhaseSpam corrupts processes for a BB run: each corrupted p_j spams
// the BB vetting phase j with a help request, and — once it has observed
// the sender's signed value — spams its nested weak BA phase with that
// (BB_valid) envelope, making the correct processes vote.
type BBPhaseSpam struct {
	adversary.Core
	senderEnv types.Value // captured ⟨v⟩_sender envelope
}

var _ sim.Adversary = (*BBPhaseSpam)(nil)

// NewBBPhaseSpam corrupts ids.
func NewBBPhaseSpam(ids ...types.ProcessID) *BBPhaseSpam {
	a := &BBPhaseSpam{}
	for _, id := range ids {
		a.Schedule = append(a.Schedule, sim.Corruption{ID: id})
	}
	return a
}

// Observe captures the sender's round-1 value for later (valid!) spam.
func (a *BBPhaseSpam) Observe(_ types.Tick, _ types.ProcessID, inbox []proto.Incoming) {
	if a.senderEnv != nil {
		return
	}
	for _, in := range inbox {
		if sm, ok := in.Payload.(bb.SenderMsg); ok {
			a.senderEnv = bb.EncodeSenderValue(bb.SenderValue{V: sm.V, Sig: sm.Sig})
			return
		}
	}
}

// Act implements sim.Adversary.
func (a *BBPhaseSpam) Act(now types.Tick, _ []sim.Message) []sim.Message {
	params := a.Env.Params
	wbaStart := bb.PhaseStart(params.N + 1) // after BB round 1 and n vetting phases
	var msgs []sim.Message
	for _, c := range a.Schedule {
		phase := int(c.ID)
		// Vetting-phase spam: help_req in the first round of BB phase j.
		if phase >= 1 && phase <= params.N && now == bb.PhaseStart(phase) {
			for i := 0; i < params.N; i++ {
				msgs = append(msgs, sim.Message{
					From: c.ID, To: types.ProcessID(i),
					Payload: bb.HelpReq{Phase: phase},
				})
			}
		}
		// Nested weak BA spam with the captured valid envelope.
		if a.senderEnv != nil && phase >= 1 && phase <= params.T+1 &&
			now == wbaStart+wba.PhaseStart(phase) {
			for i := 0; i < params.N; i++ {
				msgs = append(msgs, sim.Message{
					From: c.ID, To: types.ProcessID(i),
					Session: bb.WBASession,
					Payload: wba.Propose{Phase: phase, V: a.senderEnv},
				})
			}
		}
	}
	return msgs
}
