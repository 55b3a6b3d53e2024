package attacks

import (
	"slices"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// SelectivePhaseLeader is a Byzantine weak-BA phase-1 leader that runs the
// phase protocol faithfully except for the last step: it withholds the
// finalize certificate from one victim. The victim stays undecided, sends
// the only correct help request in the run, and is healed by the help
// round — unless the adversary additionally withholds help by corrupting
// enough answerers, in which case the fallback certificate (victim's
// share + t-1 corrupted shares + the leader's) forms and the run
// exercises the full fallback path with a prior decision in the system
// (Lemma 19: the fallback must re-decide the same value).
type SelectivePhaseLeader struct {
	adversary.Core
	// Tag must match the weak BA instance's tag.
	Tag string
	// Victim is excluded from the finalize broadcast.
	Victim types.ProcessID
	// V is the leader's (valid) proposal.
	V types.Value
	// LateRelease, if positive, additionally harvests the victim's help
	// request and releases a fallback certificate at the given tick —
	// long after every correct process decided and went quiet.
	LateRelease types.Tick
	// LateTo, if non-empty, lists the only recipients of the late
	// certificate; it reaches the others, if at all, by their echo.
	LateTo []types.ProcessID

	votes    []threshold.Share
	helpReqs []threshold.Share
	decs     []threshold.Share
	released bool
}

var _ sim.Adversary = (*SelectivePhaseLeader)(nil)

// NewSelectivePhaseLeader corrupts ids, which must include p1.
func NewSelectivePhaseLeader(tag string, victim types.ProcessID, v types.Value, ids ...types.ProcessID) *SelectivePhaseLeader {
	a := &SelectivePhaseLeader{Tag: tag, Victim: victim, V: v}
	for _, id := range ids {
		a.Schedule = append(a.Schedule, sim.Corruption{ID: id})
	}
	return a
}

// Observe harvests phase-1 votes and decide shares sent to the leader,
// plus help-request shares when a late release is scheduled.
func (a *SelectivePhaseLeader) Observe(_ types.Tick, to types.ProcessID, inbox []proto.Incoming) {
	for _, in := range inbox {
		if hr, ok := in.Payload.(wba.HelpReq); ok && a.LateRelease > 0 {
			a.helpReqs = append(a.helpReqs, threshold.Share{Signer: in.From, Sig: hr.Share})
		}
	}
	if to != 1 {
		return
	}
	for _, in := range inbox {
		switch p := in.Payload.(type) {
		case wba.Vote:
			if p.Phase == 1 && p.V.Equal(a.V) {
				a.votes = append(a.votes, threshold.Share{Signer: in.From, Sig: p.Share})
			}
		case wba.Decide:
			if p.Phase == 1 && p.V.Equal(a.V) {
				a.decs = append(a.decs, threshold.Share{Signer: in.From, Sig: p.Share})
			}
		}
	}
}

// Act drives phase 1 as leader: propose (tick 0), commit (tick 2),
// finalize-except-victim (tick 4).
func (a *SelectivePhaseLeader) Act(now types.Tick, _ []sim.Message) []sim.Message {
	quorum := a.Env.Crypto.Threshold(a.Env.Params.Quorum())
	switch now {
	case 0:
		return a.broadcast(wba.Propose{Phase: 1, V: a.V}, types.NilProcess)
	case 2:
		cert, err := a.combine(quorum, wba.VoteBase(a.Tag, 1, a.V), a.votes)
		if err != nil {
			return nil
		}
		return a.broadcast(wba.Commit{Phase: 1, V: a.V, Cert: cert, Level: 1}, types.NilProcess)
	case 4:
		cert, err := a.combine(quorum, wba.DecideBase(a.Tag, 1, a.V), a.decs)
		if err != nil {
			return nil
		}
		return a.broadcast(wba.Finalized{Phase: 1, V: a.V, Cert: cert}, a.Victim)
	}
	if a.LateRelease > 0 && now == a.LateRelease && !a.released {
		a.released = true
		small := a.Env.Crypto.Threshold(a.Env.Params.SmallQuorum())
		cert, err := a.combine(small, wba.HelpReqBase(a.Tag), a.helpReqs)
		if err != nil {
			return nil
		}
		msgs := a.broadcast(wba.FallbackCert{Cert: cert}, types.NilProcess)
		if len(a.LateTo) > 0 {
			msgs = slices.DeleteFunc(msgs, func(m sim.Message) bool { return !slices.Contains(a.LateTo, m.To) })
		}
		return msgs
	}
	return nil
}

// Quiescent keeps the engine alive through the late release window.
func (a *SelectivePhaseLeader) Quiescent(now types.Tick) bool {
	if a.LateRelease <= 0 {
		return true
	}
	return now > a.LateRelease+types.Tick(a.Env.Params.T*8+40)
}

// combine merges harvested shares with the corrupted processes' own.
func (a *SelectivePhaseLeader) combine(scheme *threshold.Scheme, base []byte, harvested []threshold.Share) (*threshold.Cert, error) {
	all := append([]threshold.Share(nil), harvested...)
	for _, c := range a.Schedule {
		sg, err := a.Env.Crypto.Signer(c.ID).Sign(base)
		if err != nil {
			continue
		}
		all = append(all, threshold.Share{Signer: c.ID, Sig: sg})
	}
	return scheme.Combine(base, all)
}

// broadcast sends from the leader to every process except skip.
func (a *SelectivePhaseLeader) broadcast(p proto.Payload, skip types.ProcessID) []sim.Message {
	var msgs []sim.Message
	for i := 0; i < a.Env.Params.N; i++ {
		id := types.ProcessID(i)
		if id == skip {
			continue
		}
		msgs = append(msgs, sim.Message{From: 1, To: id, Payload: p})
	}
	return msgs
}
