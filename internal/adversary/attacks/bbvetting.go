package attacks

import (
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// BBVettingEquivocator attacks the vetting part of the adaptive BB
// (Algorithm 2) with a coalition of a Byzantine SENDER and a Byzantine
// phase-1 vetting leader:
//
//   - the sender equivocates in round 1, giving ⟨v1⟩_sender to one half of
//     the correct processes and nothing to the other half;
//   - the corrupted vetting leader then runs its phase and hands the half
//     that has no value a DIFFERENT sender-signed value ⟨v2⟩_sender.
//
// Both values are BB_valid (genuinely sender-signed), so the correct
// processes enter the weak BA with conflicting valid inputs — precisely
// the situation unique validity (Definition 3) must absorb: the run may
// decide v1, v2, or ⊥, but never split.
type BBVettingEquivocator struct {
	adversary.Core
	// Tag must match the BB instance's tag.
	Tag string
	// V1 and V2 are the two sender-signed values.
	V1, V2 types.Value

	sender types.ProcessID
	leader types.ProcessID
}

var _ sim.Adversary = (*BBVettingEquivocator)(nil)

// NewBBVettingEquivocator corrupts the sender (p0) and the phase-1
// vetting leader (p1).
func NewBBVettingEquivocator(tag string, v1, v2 types.Value) *BBVettingEquivocator {
	a := &BBVettingEquivocator{Tag: tag, V1: v1, V2: v2, sender: 0, leader: 1}
	a.Schedule = []sim.Corruption{{ID: 0}, {ID: 1}}
	return a
}

// signEnvelope produces the sender-signed BB envelope for v.
func (a *BBVettingEquivocator) signEnvelope(v types.Value) (types.Value, bb.SenderMsg, error) {
	s, err := a.Env.Crypto.Signer(a.sender).Sign(bb.SenderBase(a.Tag, a.sender, v))
	if err != nil {
		return nil, bb.SenderMsg{}, err
	}
	env := bb.EncodeSenderValue(bb.SenderValue{V: v, Sig: s})
	return env, bb.SenderMsg{V: v, Sig: s}, nil
}

// Act implements sim.Adversary.
func (a *BBVettingEquivocator) Act(now types.Tick, _ []sim.Message) []sim.Message {
	switch now {
	case 0:
		// Round 1: ⟨v1⟩_sender to even correct ids only.
		_, msg, err := a.signEnvelope(a.V1)
		if err != nil {
			return nil
		}
		var msgs []sim.Message
		for i := 2; i < a.Env.Params.N; i += 2 {
			msgs = append(msgs, sim.Message{From: a.sender, To: types.ProcessID(i), Payload: msg})
		}
		return msgs
	case 1:
		// Vetting phase 1, round 1 (tick 1): the corrupted leader asks
		// for help so the valueless half answers idk — and regardless of
		// the answers it will push v2 at them.
		var msgs []sim.Message
		for i := 0; i < a.Env.Params.N; i++ {
			msgs = append(msgs, sim.Message{From: a.leader, To: types.ProcessID(i), Payload: bb.HelpReq{Phase: 1}})
		}
		return msgs
	case 3:
		// Vetting phase 1, round 3: hand ⟨v2⟩_sender to the odd ids.
		env2, _, err := a.signEnvelope(a.V2)
		if err != nil {
			return nil
		}
		var msgs []sim.Message
		for i := 3; i < a.Env.Params.N; i += 2 {
			msgs = append(msgs, sim.Message{From: a.leader, To: types.ProcessID(i), Payload: bb.Vetted{Phase: 1, Val: env2}})
		}
		return msgs
	}
	return nil
}

// Quiescent implements sim.Adversary: the last push is at tick 3, and a
// run must not skip the ticks before it (sim.Adversary).
func (a *BBVettingEquivocator) Quiescent(now types.Tick) bool { return now >= 3 }
