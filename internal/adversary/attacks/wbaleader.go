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

// phase1Leader is the process that leads weak BA's phase 1.
const phase1Leader types.ProcessID = 1

// WBALeader is a Byzantine coalition against weak BA's two defences (the
// paper's Section 6): the ⌈(n+t+1)/2⌉ commit/finalize quorum and the
// fallback certificate. It plays the corrupted phase-1 leader p1 with
// certificates minted from the shares the correct processes send it plus
// the coalition's own signatures, and it can hold back a fallback
// certificate to release after everything went quiet. Its zero values
// withhold nothing:
//
//   - Two faces are the split vote, the double commit the paper's quorum
//     prevents: p1 proposes Faces[0] to the correct processes of even rank
//     among the correct and Faces[1] to the odd, then commits (tick 2) and
//     finalizes (tick 4) each face to its half wherever a certificate
//     forms. Under the naive t+1 quorum one correct vote per face is
//     enough and the halves decide differently; under the paper's quorum
//     the two vote sets would have to share a correct process, and the
//     attack dies at the commit.
//   - One face is the selective finalize: p1 runs phase 1 faithfully but
//     withholds the finalize certificate from Deny. A denied process
//     stays undecided, asks for help, and is healed by the help round.
//   - Release, with any faces or none, is the late certificate: the
//     coalition collects every help-request share it receives and, at the
//     Release tick, sends the fallback certificate those shares form with
//     its own from its first corrupted process. Correct processes must
//     re-activate, echo it, run A_fallback and keep a prior decision
//     (Lemmas 17 and 19). Fewer than t+1 shares form no certificate.
//
// Every message goes to correct processes only. p1 must be corrupted
// when there is a face; with none it need not be.
type WBALeader struct {
	adversary.Core
	// Tag must match the weak BA instance's tag.
	Tag string
	// Faces are p1's phase-1 proposals: none, one, or two.
	Faces []types.Value
	// Quorum is the commit/finalize threshold the correct processes use;
	// 0 means the paper's ⌈(n+t+1)/2⌉.
	Quorum int
	// Deny lists the correct processes p1 withholds the finalize
	// certificate from.
	Deny []types.ProcessID
	// Release, if positive, is the tick of the late fallback certificate.
	Release types.Tick
	// ReleaseTo, if non-empty, lists the only recipients of the late
	// certificate; it reaches the others, if at all, by their echo.
	ReleaseTo []types.ProcessID

	face           []int                  // per process: the index of its face, -1 if corrupted
	votes, decides []*threshold.Collector // per face, on phase 1's vote and decide bases
	helps          *threshold.Collector   // help requests, collected only when Release is set
	released       bool
}

var _ sim.Adversary = (*WBALeader)(nil)

// NewWBALeader corrupts ids at tick 0; the caller sets the rest.
func NewWBALeader(tag string, ids ...types.ProcessID) *WBALeader {
	a := &WBALeader{Tag: tag}
	for _, id := range ids {
		a.Schedule = append(a.Schedule, sim.Corruption{ID: id})
	}
	return a
}

// ready makes the collectors, each holding the coalition's own shares, on
// first use: they need the run's crypto, which Init may not carry.
func (a *WBALeader) ready() {
	if a.face != nil {
		return
	}
	params, crypto := a.Env.Params, a.Env.Crypto
	a.face = make([]int, params.N)
	rank := 0
	for i := range a.face {
		a.face[i] = -1
		if !a.Corrupted(types.ProcessID(i)) && len(a.Faces) > 0 {
			a.face[i] = rank % len(a.Faces)
			rank++
		}
	}
	quorum := a.Quorum
	if quorum == 0 {
		quorum = params.Quorum()
	}
	for _, v := range a.Faces {
		a.votes = append(a.votes, a.collector(crypto.Threshold(quorum), wba.VoteBase(a.Tag, 1, v)))
		a.decides = append(a.decides, a.collector(crypto.Threshold(quorum), wba.DecideBase(a.Tag, 1, v)))
	}
	if a.Release > 0 {
		a.helps = a.collector(crypto.Threshold(params.SmallQuorum()), wba.HelpReqBase(a.Tag))
	}
}

// collector returns a collector on msg holding every corrupted process's
// share.
func (a *WBALeader) collector(scheme *threshold.Scheme, msg []byte) *threshold.Collector {
	c := scheme.NewCollector(msg)
	for _, cor := range a.Schedule {
		if sg, err := a.Env.Crypto.Signer(cor.ID).Sign(msg); err == nil {
			c.Add(threshold.Share{Signer: cor.ID, Sig: sg})
		}
	}
	return c
}

// Observe collects the phase-1 votes and decide shares sent to p1 for a
// face and, when a release is set, every help request any coalition
// member receives. Each collector checks a share on arrival.
func (a *WBALeader) Observe(_ types.Tick, to types.ProcessID, inbox []proto.Incoming) {
	a.ready()
	for _, in := range inbox {
		switch p := in.Payload.(type) {
		case wba.Vote:
			if i := a.faceOf(to, p.Phase, p.V); i >= 0 {
				a.votes[i].Add(threshold.Share{Signer: in.From, Sig: p.Share})
			}
		case wba.Decide:
			if i := a.faceOf(to, p.Phase, p.V); i >= 0 {
				a.decides[i].Add(threshold.Share{Signer: in.From, Sig: p.Share})
			}
		case wba.HelpReq:
			if a.helps != nil {
				a.helps.Add(threshold.Share{Signer: in.From, Sig: p.Share})
			}
		}
	}
}

// faceOf returns the index of v among the faces if the share was sent to
// p1 in phase 1, else -1.
func (a *WBALeader) faceOf(to types.ProcessID, phase int, v types.Value) int {
	if to != phase1Leader || phase != 1 {
		return -1
	}
	return slices.IndexFunc(a.Faces, v.Equal)
}

// Act runs phase 1 as p1 (propose at tick 0, commit at 2, finalize at 4)
// and the late release at its tick.
func (a *WBALeader) Act(now types.Tick, _ []sim.Message) []sim.Message {
	a.ready()
	var msgs []sim.Message
	for i, v := range a.Faces {
		half := func(id types.ProcessID) bool { return a.face[id] == i }
		switch now {
		case 0:
			msgs = a.send(msgs, phase1Leader, wba.Propose{Phase: 1, V: v}, half)
		case 2:
			if cert, err := a.votes[i].Cert(); err == nil {
				msgs = a.send(msgs, phase1Leader, wba.Commit{Phase: 1, V: v, Cert: cert, Level: 1}, half)
			}
		case 4:
			if cert, err := a.decides[i].Cert(); err == nil {
				msgs = a.send(msgs, phase1Leader, wba.Finalized{Phase: 1, V: v, Cert: cert}, func(id types.ProcessID) bool {
					return half(id) && !slices.Contains(a.Deny, id)
				})
			}
		}
	}
	if a.Release > 0 && now == a.Release {
		a.released = true
		if cert, err := a.helps.Cert(); err == nil {
			msgs = a.send(msgs, a.Schedule[0].ID, wba.FallbackCert{Cert: cert}, func(id types.ProcessID) bool {
				return len(a.ReleaseTo) == 0 || slices.Contains(a.ReleaseTo, id)
			})
		}
	}
	return msgs
}

// send appends p from `from` to every correct process to admits.
func (a *WBALeader) send(msgs []sim.Message, from types.ProcessID, p proto.Payload, to func(types.ProcessID) bool) []sim.Message {
	for i := 0; i < a.Env.Params.N; i++ {
		if id := types.ProcessID(i); !a.Corrupted(id) && to(id) {
			msgs = append(msgs, sim.Message{From: from, To: id, Payload: p})
		}
	}
	return msgs
}

// Quiescent keeps the run alive through the late release and the
// fallback it starts.
func (a *WBALeader) Quiescent(now types.Tick) bool {
	return a.Release <= 0 || now > a.Release+types.Tick(a.Env.Params.T*8+40)
}
