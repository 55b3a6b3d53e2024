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
	"bytes"
	"fmt"
	"slices"

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

// PhaseStart is the tick, counted from the machine's Begin, of phase
// phase's first round, in which its leader proposes. PhaseStart(phases+1),
// the tick after the last phase, is the first help round. Adversaries
// that act on weak BA's round layout read it here.
func PhaseStart(phase int) types.Tick { return types.Tick(roundsPerPhase * (phase - 1)) }

// Machine implements proto.Machine for weak BA.
type Machine struct {
	cfg    Config
	signer *sig.Signer
	clock  proto.RoundClock
	phases int

	quorum *threshold.Scheme // commit/finalize scheme (⌈(n+t+1)/2⌉ by default)
	small  *threshold.Scheme // t+1 scheme for the fallback certificate

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

	// Round-gated stashes of the phases that have seen traffic.
	stash proto.Phases[phaseState]

	// Help round state: the help requests (made with the first one), and
	// their signers in arrival order, whom round B answers.
	helpReqs *threshold.Collector
	helpers  []types.ProcessID
	helpDone bool // past round C

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

	// Sign bases already encoded under cfg.Tag: the last value hashed, the
	// last vote and decide base keyed on (phase, its digest) — the n shares
	// a leader ingests in one pass, the certificate it combines from them
	// and the one every process then verifies all cover the same (phase,
	// value) — and the constant help_req base.
	digest         wire.Digester
	votes, decides wire.BaseMemo
	helpBase       []byte

	err error // first internal error (signing); surfaces via Failed
}

var _ proto.Machine = (*Machine)(nil)

// phaseState is the round-gated state of one phase 1..P, made when the
// phase first sees traffic.
type phaseState struct {
	proposal Propose // the leader's first proposal, if proposed
	proposed bool
	commits  []Commit // every commit the leader sent; one is picked in round 4
	voted    bool     // this process voted in the phase
	decided  bool     // this process sent its decide share in the phase

	// Leader only: what the phase's followers sent it.
	commitInfos []CommitInfo
	votes       []valueShares
	decides     []valueShares
}

// valueShares collects the shares on one value.
type valueShares struct {
	v      types.Value // the machine's own copy
	shares *threshold.Collector
}

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
	// vi is never written in place and bu_decision is only ever replaced,
	// so the two start on one copy of the input.
	vi := cfg.Input.Clone()
	return &Machine{
		cfg:           cfg,
		signer:        cfg.Crypto.Signer(cfg.ID),
		phases:        phases,
		quorum:        cfg.Crypto.Threshold(quorumSize),
		small:         cfg.Crypto.Threshold(cfg.Params.SmallQuorum()),
		vi:            vi,
		buDecision:    vi,
		fallbackStart: -1,
	}
}

// inRange reports whether j is one of the run's phases 1..P.
func (m *Machine) inRange(j int) bool { return j >= 1 && j <= m.phases }

// leads reports whether this process leads phase j, which must be in range.
func (m *Machine) leads(j int) bool { return m.inRange(j) && m.leaderOf(j) == m.cfg.ID }

// addShare hands sh to v's collector, whose message is base. v's entry
// (with its own copy of v) is made on v's first valid share.
func (m *Machine) addShare(list []valueShares, v types.Value, base []byte, sh threshold.Share) []valueShares {
	for i := range list {
		if bytes.Equal(list[i].v, v) {
			list[i].shares.Add(sh)
			return list
		}
	}
	c := m.quorum.NewCollector(base)
	if !c.Add(sh) {
		return list
	}
	return append(list, valueShares{v: v.Clone(), shares: c})
}

// byValue orders list by value bytes, so a leader holding a quorum for two
// values certifies the lower one.
func byValue(list []valueShares) []valueShares {
	slices.SortFunc(list, func(a, b valueShares) int { return bytes.Compare(a.v, b.v) })
	return list
}

// voteBase returns voteBase(tag, phase, v), hashing only when v differs
// from the previous value the machine hashed and encoding only when
// (phase, digest) differ from the previous vote base's.
func (m *Machine) voteBase(phase int, v types.Value) []byte {
	return m.votes.Get(voteDomain, m.cfg.Tag, phase, m.digest.Sum(v))
}

// decideBase is voteBase's counterpart for decide shares.
func (m *Machine) decideBase(phase int, v types.Value) []byte {
	return m.decides.Get(decideDomain, m.cfg.Tag, phase, m.digest.Sum(v))
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
	// v is a payload's or an input's bytes, never written again; the
	// capped view keeps an append to the decision from reaching them.
	m.decision = v[:len(v):len(v)]
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
// effect immediately, round-gated ones are stashed for their boundary. A
// round-gated message for a phase outside 1..P is dropped before anything
// is encoded or verified: no boundary would ever read it.
func (m *Machine) ingest(now types.Tick, in proto.Incoming) {
	switch p := in.Payload.(type) {
	case Propose:
		// Only the phase's leader's first proposal counts.
		if !m.inRange(p.Phase) || in.From != m.leaderOf(p.Phase) {
			return
		}
		if s := m.stash.Make(p.Phase); !s.proposed {
			s.proposal, s.proposed = p, true
		}
	case Vote:
		if !m.leads(p.Phase) {
			return
		}
		s := m.stash.Make(p.Phase)
		s.votes = m.addShare(s.votes, p.V, m.voteBase(p.Phase, p.V), threshold.Share{Signer: in.From, Sig: p.Share})
	case CommitInfo:
		if !m.leads(p.Phase) || !m.verifyCommit(p.V, p.Level, p.Cert) {
			return
		}
		s := m.stash.Make(p.Phase)
		s.commitInfos = append(s.commitInfos, p)
	case Commit:
		// Stashed; validated at the phase's round-4 boundary. A Byzantine
		// leader may send several; keep them all and pick a valid one.
		if m.inRange(p.Phase) && in.From == m.leaderOf(p.Phase) {
			s := m.stash.Make(p.Phase)
			s.commits = append(s.commits, p)
		}
	case Decide:
		if !m.leads(p.Phase) {
			return
		}
		s := m.stash.Make(p.Phase)
		s.decides = m.addShare(s.decides, p.V, m.decideBase(p.Phase, p.V), threshold.Share{Signer: in.From, Sig: p.Share})
	case Finalized:
		if m.verifyFinalize(p.V, p.Phase, p.Cert) {
			if !m.decided {
				m.decidedAtPhase = p.Phase
			}
			m.setDecision(p.V, p.Cert, p.Phase)
		}
	case HelpReq:
		if m.helpReqs == nil {
			m.helpReqs = m.small.NewCollector(m.helpReqBase())
		}
		if m.helpReqs.Add(threshold.Share{Signer: in.From, Sig: p.Share}) {
			m.helpers = append(m.helpers, in.From)
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
		s := m.stash.Get(phase)
		if s == nil || !s.proposed {
			return outs
		}
		if m.commit != nil && m.commitProof != nil {
			return proto.AppendUnicast(outs, leader, "", CommitInfo{
				Phase: phase, V: m.commit, Cert: m.commitProof, Level: m.commitLevel,
			})
		}
		if v := s.proposal.V; !s.voted && m.cfg.Predicate.Validate(v) {
			s.voted = true
			share, err := m.signer.Sign(m.voteBase(phase, v))
			if err != nil {
				m.fail(err)
				return outs
			}
			return proto.AppendUnicast(outs, leader, "", Vote{Phase: phase, V: v, Share: share})
		}
	case 3:
		s := m.active(phase)
		if s == nil {
			return outs
		}
		// Prefer relaying the highest-level commit heard of (line 39).
		if infos := s.commitInfos; len(infos) > 0 {
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
		for _, vs := range byValue(s.votes) {
			cert, err := vs.shares.Cert()
			if err != nil {
				continue
			}
			return proto.AppendBroadcast(outs, m.cfg.Params, "", Commit{Phase: phase, V: vs.v, Cert: cert, Level: phase})
		}
	case 4:
		s := m.stash.Get(phase)
		if s == nil || s.decided {
			return outs
		}
		var best *Commit
		for i := range s.commits {
			c := &s.commits[i]
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
		s.decided = true
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
		s := m.active(phase)
		if s == nil {
			return outs
		}
		for _, vs := range byValue(s.decides) {
			cert, err := vs.shares.Cert()
			if err != nil {
				continue
			}
			return proto.AppendBroadcast(outs, m.cfg.Params, "", Finalized{Phase: phase, V: vs.v, Cert: cert})
		}
	}
	return outs
}

// active returns phase's entry if this process initiated the phase as its
// leader, nil otherwise (a silent leader performs no aggregation either).
func (m *Machine) active(phase int) *phaseState {
	if m.leaderOf(phase) != m.cfg.ID {
		return nil
	}
	if s := m.stash.Get(phase); s != nil && s.proposed {
		return s
	}
	return nil
}

// helpRoundB answers help requests and forms the fallback certificate.
func (m *Machine) helpRoundB(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	if m.decided {
		for _, id := range m.helpers {
			if id == m.cfg.ID {
				continue
			}
			outs = proto.AppendUnicast(outs, id, "", Help{
				V: m.decision, Proof: m.decideProof, ProofPhase: m.decidePhase,
			})
		}
	}
	if m.helpReqs != nil && m.fallbackStart < 0 {
		cert, err := m.helpReqs.Cert()
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
