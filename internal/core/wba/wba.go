// Package wba implements the paper's adaptive weak Byzantine Agreement
// (Section 6, Algorithms 3 and 4): resilience n = 2t+1, unique validity
// with respect to a caller-chosen predicate, O(n(f+1)) words when
// f < (n-t-1)/2 and a quadratic fallback otherwise.
//
// Structure of a run (ticks are δ units, one round per tick):
//
//	phases j = 1..P (default P = t+1), 5 rounds each:
//	  r1 propose   — leader (rotating, silent if it already decided)
//	  r2 vote      — vote for the proposal, or report an earlier commit
//	  r3 commit    — leader broadcasts a ⌈(n+t+1)/2⌉ commit certificate
//	  r4 decide    — processes lock the commit and sign decide shares
//	  r5 finalize  — leader broadcasts the finalize certificate
//	help round A   — undecided processes broadcast signed help requests
//	help round B   — decided processes answer; t+1 requests form a
//	                 fallback certificate that is broadcast
//	help round C   — help answers adopted
//	fallback       — 2δ after learning the certificate, run A_fallback
//	                 with 2δ rounds and the best-known decision as input
package wba

import (
	"fmt"
	"sort"

	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/fallback"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// Config parameterizes weak BA for one process.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	// Input is the process's proposal. The protocol's preconditions
	// require it to satisfy Predicate.
	Input types.Value
	// Predicate is the unique-validity predicate (Definition 3).
	Predicate valid.Predicate
	// Tag domain-separates this instance's signatures.
	Tag string
	// Phases overrides the number of leader phases; 0 means the default
	// t+1 (Algorithm 3 line 1). The ablation experiments also run with n.
	Phases int
	// DisableSilentPhases makes leaders initiate phases even after they
	// decided. Used only by the ablation experiments: it restores the
	// non-adaptive Θ(n·P) cost.
	DisableSilentPhases bool
	// QuorumOverride replaces the paper's ⌈(n+t+1)/2⌉ commit/finalize
	// quorum. ABLATION ONLY: anything below the paper's value loses the
	// correct-intersection property and the protocol becomes UNSAFE (the
	// ablate-quorum experiment demonstrates the resulting split-brain).
	QuorumOverride int
}

const fbSession = "fb"

// roundsPerPhase is the paper's 5-round phase structure (Algorithm 4).
const roundsPerPhase = 5

// Machine implements proto.Machine for weak BA.
type Machine struct {
	cfg    Config
	signer *sig.Signer
	clock  proto.RoundClock
	phases int

	quorumSize int
	quorum     *threshold.Scheme // commit/finalize scheme (⌈(n+t+1)/2⌉ by default)
	small      *threshold.Scheme // t+1 scheme for the fallback certificate

	// Algorithm state.
	vi          types.Value
	decided     bool
	decision    types.Value
	decideProof *threshold.Cert
	decidePhase int

	commit      types.Value
	commitProof *threshold.Cert
	commitLevel int

	buDecision   types.Value
	buProof      *threshold.Cert
	buProofPhase int

	// Per-phase round-gated stashes.
	proposals    map[int]*Propose
	commitMsgs   map[int][]Commit
	votes        map[int]map[string][]threshold.Share
	commitInfos  map[int][]CommitInfo
	decideShares map[int]map[string][]threshold.Share
	votedPhase   map[int]bool
	decidedShare map[int]bool

	// Help round state.
	helpReqShares map[types.ProcessID]sig.Signature
	helpReqFrom   []types.ProcessID
	helpDone      bool // past round C

	// Fallback state.
	fallbackStart   types.Tick // -1 = ∞ (not scheduled)
	fbSub           *proto.Sub
	fbBuffer        []proto.Incoming
	fbAdopted       bool
	pendingAnnounce *FallbackCert // echo queued by onFallbackCert

	// Run statistics for the experiment harness.
	decidedAtPhase int        // 0 = not via phases
	decidedAtTick  types.Tick // tick of the decision (latency metric)
	nowTick        types.Tick
	ranFallback    bool

	// Sign bases already encoded under cfg.Tag: the last vote and decide
	// base (the n shares a leader ingests in one pass, the certificate it
	// combines from them and the one every process then verifies all
	// cover the same (phase, value)) and the constant help_req base.
	lastVote, lastDecide wire.LastEncoding
	helpBase             []byte

	err error // first internal error (signing); surfaces via Failed
}

var _ proto.Machine = (*Machine)(nil)

// NewMachine builds the weak BA machine.
func NewMachine(cfg Config) *Machine {
	phases := cfg.Phases
	if phases <= 0 {
		phases = cfg.Params.T + 1
	}
	quorumSize := cfg.Params.Quorum()
	if cfg.QuorumOverride > 0 {
		quorumSize = cfg.QuorumOverride
	}
	m := &Machine{
		cfg:           cfg,
		signer:        cfg.Crypto.Signer(cfg.ID),
		phases:        phases,
		quorumSize:    quorumSize,
		quorum:        cfg.Crypto.Threshold(quorumSize),
		small:         cfg.Crypto.Threshold(cfg.Params.SmallQuorum()),
		vi:            cfg.Input.Clone(),
		buDecision:    cfg.Input.Clone(),
		fallbackStart: -1,
		proposals:     make(map[int]*Propose),
		commitMsgs:    make(map[int][]Commit),
		votes:         make(map[int]map[string][]threshold.Share),
		commitInfos:   make(map[int][]CommitInfo),
		decideShares:  make(map[int]map[string][]threshold.Share),
		votedPhase:    make(map[int]bool),
		decidedShare:  make(map[int]bool),
		helpReqShares: make(map[types.ProcessID]sig.Signature),
	}
	return m
}

// voteBase returns voteBase(tag, phase, v), re-encoding only when
// (phase, v) differ from the previous call's.
func (m *Machine) voteBase(phase int, v types.Value) []byte {
	return m.lastVote.Get(phase, v, func() []byte { return voteBase(m.cfg.Tag, phase, v) })
}

// decideBase is voteBase's counterpart for decide shares.
func (m *Machine) decideBase(phase int, v types.Value) []byte {
	return m.lastDecide.Get(phase, v, func() []byte { return decideBase(m.cfg.Tag, phase, v) })
}

// helpReqBase returns the instance's one help_req base, encoded on first
// use (a run in which everybody decides never needs it).
func (m *Machine) helpReqBase() []byte {
	if m.helpBase == nil {
		m.helpBase = helpReqBase(m.cfg.Tag)
	}
	return m.helpBase
}

// Rounds returns the number of lock-step rounds before the fallback may
// start: the phases plus the three help rounds.
func (m *Machine) Rounds() int { return m.phases*roundsPerPhase + 3 }

// MaxTicks conservatively bounds a full run including the fallback, for
// sizing simulator budgets and the schedules of enclosing protocols. It
// is a function of the run parameters and the phase-count override alone
// (phases <= 0 is the default t+1, as in Config.Phases), so a schedule is
// sized without building a machine.
func MaxTicks(params types.Params, phases int) types.Tick {
	if phases <= 0 {
		phases = params.T + 1
	}
	fb := types.Tick((params.T + 2) * 2)
	return types.Tick(phases*roundsPerPhase+3) + 4 + fb + 4
}

// DecidedAtPhase reports the phase whose finalize certificate decided this
// process (0 if the decision came from help or the fallback).
func (m *Machine) DecidedAtPhase() int { return m.decidedAtPhase }

// RanFallback reports whether this process executed A_fallback.
func (m *Machine) RanFallback() bool { return m.ranFallback }

// DecidedAtTick reports when (in δ ticks from the run start) this process
// decided; meaningful only once Output reports a decision.
func (m *Machine) DecidedAtTick() types.Tick { return m.decidedAtTick }

// Failed returns the first internal error (it cannot happen with a
// well-formed trusted setup; exposed for tests).
func (m *Machine) Failed() error { return m.err }

// Begin implements proto.Machine.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.nowTick = now
	m.clock = proto.NewRoundClock(now, 1)
	return m.boundary(now, 1, outs)
}

// Tick implements proto.Machine.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	m.nowTick = now

	// Route fallback traffic and ingest the protocol's own messages
	// (certificate-backed ones take effect immediately; round-gated ones
	// are stashed).
	fbIn := proto.SplitChild(inbox, fbSession, func(in proto.Incoming) { m.ingest(now, in) })

	// Echo a newly learned fallback certificate right away (line 22): the
	// lock-step rounds may already be over by the time it arrives.
	if m.pendingAnnounce != nil {
		outs = proto.AppendBroadcast(outs, m.cfg.Params, "", *m.pendingAnnounce)
		m.pendingAnnounce = nil
	}

	if r, ok := m.clock.BoundaryAt(now); ok && int(r) <= m.Rounds() {
		outs = m.boundary(now, int(r), outs)
	}

	// Fallback lifecycle.
	if m.fallbackStart >= 0 && m.fbSub == nil && now >= m.fallbackStart {
		outs = m.startFallback(now, outs)
	}
	if m.fbSub == nil {
		m.fbBuffer = append(m.fbBuffer, fbIn...)
		return outs
	}
	if len(m.fbBuffer) > 0 {
		fbIn = append(m.fbBuffer, fbIn...)
		m.fbBuffer = nil
	}
	outs = m.fbSub.Tick(now, fbIn, outs)
	m.finishFallback()
	return outs
}

// Output implements proto.Machine.
func (m *Machine) Output() (types.Value, bool) { return m.decision, m.decided }

// Done implements proto.Machine.
func (m *Machine) Done() bool {
	if !m.decided || !m.helpDone {
		return false
	}
	if m.fallbackStart >= 0 {
		return m.fbSub != nil && m.fbSub.Done()
	}
	return true
}

// phaseOf maps a global round to (phase, withinRound).
func (m *Machine) phaseOf(r int) (phase, w int) {
	return (r-1)/roundsPerPhase + 1, (r-1)%roundsPerPhase + 1
}

// leaderOf returns the rotating leader of a phase.
func (m *Machine) leaderOf(phase int) types.ProcessID {
	return m.cfg.Params.Leader(phase)
}

// setDecision records a decision exactly once (Lemma 23).
func (m *Machine) setDecision(v types.Value, proof *threshold.Cert, phase int) {
	if m.decided {
		return
	}
	m.decided = true
	m.decision = v.Clone()
	m.decideProof = proof
	m.decidePhase = phase
	m.decidedAtTick = m.nowTick
	m.buDecision = m.decision
	m.buProof = proof
	m.buProofPhase = phase
}

// verifyFinalize checks a finalize certificate for (v, phase).
func (m *Machine) verifyFinalize(v types.Value, phase int, cert *threshold.Cert) bool {
	if cert == nil || phase < 1 || phase > m.phases || v.IsBottom() {
		return false
	}
	return m.quorum.Verify(m.decideBase(phase, v), cert)
}

// verifyCommit checks a commit certificate for (v, level).
func (m *Machine) verifyCommit(v types.Value, level int, cert *threshold.Cert) bool {
	if cert == nil || level < 1 || level > m.phases || v.IsBottom() {
		return false
	}
	return m.quorum.Verify(m.voteBase(level, v), cert)
}

// ingest handles one incoming message: certificate-backed messages take
// effect immediately, round-gated ones are stashed for their boundary.
func (m *Machine) ingest(now types.Tick, in proto.Incoming) {
	switch p := in.Payload.(type) {
	case Propose:
		// Only the phase's leader's first proposal counts.
		if in.From == m.leaderOf(p.Phase) && m.proposals[p.Phase] == nil {
			cp := p
			m.proposals[p.Phase] = &cp
		}
	case Vote:
		if m.leaderOf(p.Phase) != m.cfg.ID {
			return
		}
		if !m.quorum.VerifyShare(m.voteBase(p.Phase, p.V), threshold.Share{Signer: in.From, Sig: p.Share}) {
			return
		}
		if m.votes[p.Phase] == nil {
			m.votes[p.Phase] = make(map[string][]threshold.Share)
		}
		key := string(p.V)
		m.votes[p.Phase][key] = append(m.votes[p.Phase][key], threshold.Share{Signer: in.From, Sig: p.Share})
	case CommitInfo:
		if m.leaderOf(p.Phase) != m.cfg.ID {
			return
		}
		if !m.verifyCommit(p.V, p.Level, p.Cert) {
			return
		}
		m.commitInfos[p.Phase] = append(m.commitInfos[p.Phase], p)
	case Commit:
		// Stashed; validated at the phase's round-4 boundary. A Byzantine
		// leader may send several; keep them all and pick a valid one.
		if in.From == m.leaderOf(p.Phase) {
			m.commitMsgs[p.Phase] = append(m.commitMsgs[p.Phase], p)
		}
	case Decide:
		if m.leaderOf(p.Phase) != m.cfg.ID {
			return
		}
		if !m.quorum.VerifyShare(m.decideBase(p.Phase, p.V), threshold.Share{Signer: in.From, Sig: p.Share}) {
			return
		}
		if m.decideShares[p.Phase] == nil {
			m.decideShares[p.Phase] = make(map[string][]threshold.Share)
		}
		key := string(p.V)
		m.decideShares[p.Phase][key] = append(m.decideShares[p.Phase][key], threshold.Share{Signer: in.From, Sig: p.Share})
	case Finalized:
		if m.verifyFinalize(p.V, p.Phase, p.Cert) {
			if !m.decided {
				m.decidedAtPhase = p.Phase
			}
			m.setDecision(p.V, p.Cert, p.Phase)
		}
	case HelpReq:
		if !m.small.VerifyShare(m.helpReqBase(), threshold.Share{Signer: in.From, Sig: p.Share}) {
			return
		}
		if _, seen := m.helpReqShares[in.From]; !seen {
			m.helpReqShares[in.From] = p.Share
			m.helpReqFrom = append(m.helpReqFrom, in.From)
		}
	case Help:
		if m.verifyFinalize(p.V, p.ProofPhase, p.Proof) {
			m.setDecision(p.V, p.Proof, p.ProofPhase)
		}
	case FallbackCert:
		m.onFallbackCert(now, p)
	}
}

// onFallbackCert handles lines 16–23 of Algorithm 3.
func (m *Machine) onFallbackCert(now types.Tick, p FallbackCert) {
	if p.Cert == nil || !m.small.Verify(m.helpReqBase(), p.Cert) {
		return
	}
	// Adopt attached decision evidence while undecided.
	if !m.decided && m.verifyFinalize(p.V, p.ProofPhase, p.Proof) {
		m.buDecision = p.V.Clone()
		m.buProof = p.Proof
		m.buProofPhase = p.ProofPhase
	}
	if m.fallbackStart < 0 {
		// First time hearing about the fallback: echo and schedule.
		m.fallbackStart = now + 2
		m.pendingAnnounce = &FallbackCert{
			Cert:       p.Cert,
			V:          m.buDecision,
			Proof:      m.buProof,
			ProofPhase: m.buProofPhase,
		}
	}
}

// boundary performs the round-r actions.
func (m *Machine) boundary(now types.Tick, r int, outs []proto.Outgoing) []proto.Outgoing {
	if r <= m.phases*roundsPerPhase {
		phase, w := m.phaseOf(r)
		return m.phaseRound(phase, w, outs)
	}
	switch r - m.phases*roundsPerPhase {
	case 1: // round A: help requests
		if !m.decided {
			share, err := m.signer.Sign(m.helpReqBase())
			if err != nil {
				m.fail(err)
				return outs
			}
			outs = proto.AppendBroadcast(outs, m.cfg.Params, "", HelpReq{Share: share})
		}
	case 2: // round B: help answers + fallback certificate
		outs = m.helpRoundB(now, outs)
	case 3: // round C: adoption already happened in ingest; close help phase
		m.helpDone = true
		if m.decided {
			m.buDecision = m.decision
		}
	}
	return outs
}

// phaseRound implements Algorithm 4 for phase/round (phase, w).
func (m *Machine) phaseRound(phase, w int, outs []proto.Outgoing) []proto.Outgoing {
	leader := m.leaderOf(phase)
	amLeader := leader == m.cfg.ID
	switch w {
	case 1:
		if amLeader && (!m.decided || m.cfg.DisableSilentPhases) {
			return proto.AppendBroadcast(outs, m.cfg.Params, "", Propose{Phase: phase, V: m.vi})
		}
	case 2:
		p := m.proposals[phase]
		if p == nil {
			return outs
		}
		if m.commit != nil && m.commitProof != nil {
			return proto.AppendUnicast(outs, leader, "", CommitInfo{
				Phase: phase, V: m.commit, Cert: m.commitProof, Level: m.commitLevel,
			})
		}
		if !m.votedPhase[phase] && m.cfg.Predicate.Validate(p.V) {
			m.votedPhase[phase] = true
			share, err := m.signer.Sign(m.voteBase(phase, p.V))
			if err != nil {
				m.fail(err)
				return outs
			}
			return proto.AppendUnicast(outs, leader, "", Vote{Phase: phase, V: p.V, Share: share})
		}
	case 3:
		if !amLeader || !m.phaseActive(phase) {
			return outs
		}
		// Prefer relaying the highest-level commit heard of (line 39).
		if infos := m.commitInfos[phase]; len(infos) > 0 {
			best := infos[0]
			for _, ci := range infos[1:] {
				if ci.Level > best.Level {
					best = ci
				}
			}
			return proto.AppendBroadcast(outs, m.cfg.Params, "", Commit{
				Phase: phase, V: best.V, Cert: best.Cert, Level: best.Level,
			})
		}
		// Otherwise form a fresh commit certificate (lines 40–42).
		for _, key := range sortedKeys(m.votes[phase]) {
			shares := m.votes[phase][key]
			if len(shares) < m.quorumSize {
				continue
			}
			v := types.Value(key)
			cert, err := m.quorum.Combine(m.voteBase(phase, v), shares)
			if err != nil {
				continue
			}
			return proto.AppendBroadcast(outs, m.cfg.Params, "", Commit{Phase: phase, V: v, Cert: cert, Level: phase})
		}
	case 4:
		if m.decidedShare[phase] {
			return outs
		}
		var best *Commit
		for i := range m.commitMsgs[phase] {
			c := &m.commitMsgs[phase][i]
			if !m.verifyCommit(c.V, c.Level, c.Cert) || c.Level > phase || c.Level < m.commitLevel {
				continue
			}
			if best == nil || c.Level > best.Level {
				best = c
			}
		}
		if best == nil {
			return outs
		}
		m.decidedShare[phase] = true
		m.commit = best.V.Clone()
		m.commitProof = best.Cert
		m.commitLevel = best.Level
		share, err := m.signer.Sign(m.decideBase(phase, best.V))
		if err != nil {
			m.fail(err)
			return outs
		}
		return proto.AppendUnicast(outs, leader, "", Decide{Phase: phase, V: best.V, Share: share})
	case 5:
		if !amLeader || !m.phaseActive(phase) {
			return outs
		}
		for _, key := range sortedKeys(m.decideShares[phase]) {
			shares := m.decideShares[phase][key]
			if len(shares) < m.quorumSize {
				continue
			}
			v := types.Value(key)
			cert, err := m.quorum.Combine(m.decideBase(phase, v), shares)
			if err != nil {
				continue
			}
			return proto.AppendBroadcast(outs, m.cfg.Params, "", Finalized{Phase: phase, V: v, Cert: cert})
		}
	}
	return outs
}

// phaseActive reports whether this process initiated phase as leader (a
// silent leader performs no aggregation either).
func (m *Machine) phaseActive(phase int) bool {
	return m.proposals[phase] != nil && m.leaderOf(phase) == m.cfg.ID
}

// helpRoundB answers help requests and forms the fallback certificate.
func (m *Machine) helpRoundB(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	if m.decided {
		for _, from := range m.helpReqFrom {
			if from == m.cfg.ID {
				continue
			}
			outs = proto.AppendUnicast(outs, from, "", Help{
				V: m.decision, Proof: m.decideProof, ProofPhase: m.decidePhase,
			})
		}
	}
	if len(m.helpReqShares) >= m.cfg.Params.SmallQuorum() && m.fallbackStart < 0 {
		shares := make([]threshold.Share, 0, len(m.helpReqShares))
		for _, from := range m.helpReqFrom {
			shares = append(shares, threshold.Share{Signer: from, Sig: m.helpReqShares[from]})
		}
		cert, err := m.small.Combine(m.helpReqBase(), shares)
		if err == nil {
			m.fallbackStart = now + 2
			var v types.Value
			var proof *threshold.Cert
			phase := 0
			if m.decided {
				v, proof, phase = m.decision, m.decideProof, m.decidePhase
			}
			outs = proto.AppendBroadcast(outs, m.cfg.Params, "", FallbackCert{
				Cert: cert, V: v, Proof: proof, ProofPhase: phase,
			})
		}
	}
	return outs
}

// startFallback launches A_fallback with δ' = 2δ and input bu_decision
// (Algorithm 3 line 24).
func (m *Machine) startFallback(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.ranFallback = true
	fb := fallback.NewMachine(fallback.Config{
		Params:   m.cfg.Params,
		Crypto:   m.cfg.Crypto,
		ID:       m.cfg.ID,
		Input:    m.buDecision,
		Tag:      m.cfg.Tag + "/" + fbSession,
		RoundDur: 2,
	})
	m.fbSub = proto.NewSub(fbSession, fb)
	return m.fbSub.Begin(now, outs)
}

// finishFallback adopts the fallback output (lines 25–29): the fallback
// value if it satisfies the predicate, ⊥ otherwise. Processes that decided
// earlier keep their decision (line 25's guard).
func (m *Machine) finishFallback() {
	if m.fbSub == nil || !m.fbSub.Done() || m.fbAdopted {
		return
	}
	m.fbAdopted = true
	if m.decided {
		return
	}
	fv, _ := m.fbSub.Output()
	if m.cfg.Predicate.Validate(fv) {
		m.setDecision(fv, nil, 0)
		return
	}
	m.setDecision(types.Bottom, nil, 0)
}

// fail records the first internal error.
func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = fmt.Errorf("wba %v: %w", m.cfg.ID, err)
	}
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys(mp map[string][]threshold.Share) []string {
	keys := make([]string, 0, len(mp))
	for k := range mp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
