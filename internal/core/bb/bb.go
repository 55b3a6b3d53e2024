// Package bb implements the paper's adaptive Byzantine Broadcast
// (Section 5, Algorithms 1 and 2): resilience n = 2t+1 and O(n(f+1))
// communication, by reduction to adaptive weak BA with the BB_valid
// predicate.
//
// Run structure (one round per tick):
//
//	round 1        — the designated sender disseminates ⟨v⟩_sender
//	n vetting phases, 3 rounds each, rotating leader:
//	  r1 help_req  — the leader asks for help iff it has no value yet
//	  r2 reply     — processes return their value, or a signed idk
//	  r3 vet       — the leader broadcasts a sender-signed value or an
//	                 idk certificate batched from t+1 idk signatures
//	weak BA        — on the (BB_valid) envelope values; a decision of the
//	                 form ⟨v⟩_sender yields v, anything else yields ⊥
//
// One deviation from the paper's pseudocode, which only re-broadcasts
// sender-signed replies (Alg. 2 line 23): a leader here re-broadcasts any
// BB_valid reply, including idk certificates adopted in earlier phases.
// Without this, a correct leader whose helpers all hold idk certificates
// could end the vetting with no value, breaking the weak BA precondition;
// with it, Lemma 9 holds in all cases while validity (Lemma 10/12) is
// unaffected — when the sender is correct no idk certificate can exist at
// all. (The published version notes a related correction by Elsheimy et
// al. to the weak BA; this is the analogous repair on the BB side.)
package bb

import (
	"fmt"

	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// WBASession is the session name of the nested weak BA: its messages
// travel under this segment below the BB instance's own session.
const WBASession = "wba"

// roundsPerPhase is the 3-round vetting phase structure (Algorithm 2).
const roundsPerPhase = 3

// PhaseStart is the tick, counted from the machine's Begin, of vetting
// phase phase's first round; round 1 (tick 0) is the sender's
// dissemination. PhaseStart(phases+1), the tick after the last vetting
// phase, is the tick the nested weak BA begins. Adversaries that act on
// BB's round layout read it here.
func PhaseStart(phase int) types.Tick { return types.Tick(1 + roundsPerPhase*(phase-1)) }

// Config parameterizes BB for one process.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	// Sender is the designated sender.
	Sender types.ProcessID
	// Input is the broadcast value; used only when ID == Sender.
	Input types.Value
	// Tag domain-separates this instance.
	Tag string
	// Phases overrides the number of vetting phases (default n,
	// Algorithm 1 line 5).
	Phases int
	// WBAPhases overrides the nested weak BA's phase count (default t+1).
	WBAPhases int
	// DisableSilentPhases is for ablation only; see wba.Config.
	DisableSilentPhases bool
}

// Payloads of the vetting part.

// SenderMsg is the round-1 dissemination ⟨v⟩_sender.
type SenderMsg struct {
	V   types.Value
	Sig sig.Signature
}

// Type implements proto.Payload.
func (SenderMsg) Type() string { return "bb/sender" }

// Words implements proto.Payload.
func (SenderMsg) Words() int { return 1 }

// HelpReq is the phase leader's ⟨help_req, j⟩ (Alg. 2 line 16).
type HelpReq struct {
	Phase int
}

// Type implements proto.Payload.
func (HelpReq) Type() string { return "bb/help_req" }

// Words implements proto.Payload.
func (HelpReq) Words() int { return 1 }

// Reply returns a held value to the leader (line 19). Val is a BB value
// envelope (sender-signed or idk certificate).
type Reply struct {
	Phase int
	Val   types.Value
}

// Type implements proto.Payload.
func (Reply) Type() string { return "bb/reply" }

// Words implements proto.Payload.
func (Reply) Words() int { return 1 }

// IdkShare is the signed ⟨idk, j⟩ answer (line 21).
type IdkShare struct {
	Phase int
	Share sig.Signature
}

// Type implements proto.Payload.
func (IdkShare) Type() string { return "bb/idk" }

// Words implements proto.Payload.
func (IdkShare) Words() int { return 1 }

// Vetted is the leader's phase conclusion ⟨v, j⟩ (lines 24 and 27).
type Vetted struct {
	Phase int
	Val   types.Value
}

// Type implements proto.Payload.
func (Vetted) Type() string { return "bb/vetted" }

// Words implements proto.Payload.
func (Vetted) Words() int { return 1 }

// Machine implements proto.Machine for BB.
type Machine struct {
	cfg       Config
	signer    *sig.Signer
	clock     proto.RoundClock
	phases    int
	validator Validator
	small     *threshold.Scheme

	vi       types.Value // current BB envelope value, ⊥ until adopted
	decided  bool
	decision types.Value

	// Round-gated stashes of the vetting phases that have seen traffic.
	stash proto.Phases[vetPhase]

	wbaSub     *proto.Sub
	wbaMachine *wba.Machine

	decidedAtTick types.Tick
	nowTick       types.Tick

	err error
}

var _ proto.Machine = (*Machine)(nil)

// vetPhase is the round-gated state of one vetting phase 1..P, made when
// the phase first sees traffic (the phases after the first correct
// leader's are silent).
type vetPhase struct {
	helpReq bool // the phase's leader asked for help
	vetted  bool // a valid vetted value concluded the phase

	// Leader only: the valid replies in arrival order, and the idk shares
	// (made with the first one).
	replies []types.Value
	idk     *threshold.Collector
}

// NewMachine builds the BB machine.
func NewMachine(cfg Config) *Machine {
	phases := cfg.Phases
	if phases <= 0 {
		phases = cfg.Params.N
	}
	return &Machine{
		cfg:       cfg,
		signer:    cfg.Crypto.Signer(cfg.ID),
		phases:    phases,
		validator: newValidator(cfg.Crypto, cfg.Tag, cfg.Sender, phases),
		small:     cfg.Crypto.Threshold(cfg.Params.SmallQuorum()),
	}
}

// inRange reports whether j is one of the run's vetting phases 1..P.
func (m *Machine) inRange(j int) bool { return j >= 1 && j <= m.phases }

// leads reports whether this process leads phase j, which must be in range.
func (m *Machine) leads(j int) bool {
	return m.inRange(j) && m.cfg.Params.Leader(j) == m.cfg.ID
}

// Rounds returns the number of vetting rounds before weak BA starts.
func (m *Machine) Rounds() int { return 1 + m.phases*roundsPerPhase }

// MaxTicks conservatively bounds a full run — the vetting rounds, then the
// nested weak BA's own bound — for simulator budgets and the schedules of
// enclosing protocols. It is a function of the run parameters and the two
// phase-count overrides alone (<= 0 is the default, as in Config.Phases
// and Config.WBAPhases), so a schedule is sized without building a
// machine.
func MaxTicks(params types.Params, phases, wbaPhases int) types.Tick {
	if phases <= 0 {
		phases = params.N
	}
	return PhaseStart(phases+1) + wba.MaxTicks(params, wbaPhases) + 4
}

// RanFallback reports whether this process's nested weak BA executed
// A_fallback.
func (m *Machine) RanFallback() bool { return m.wbaMachine != nil && m.wbaMachine.RanFallback() }

// Failed returns the first internal error (for tests).
func (m *Machine) Failed() error { return m.err }

// DecidedAtTick reports when (in δ ticks) this process decided.
func (m *Machine) DecidedAtTick() types.Tick { return m.decidedAtTick }

// Begin implements proto.Machine.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.nowTick = now
	m.clock = proto.NewRoundClock(now, 1)
	if m.cfg.ID != m.cfg.Sender {
		return outs
	}
	s, err := m.signer.Sign(m.validator.senderBase(m.cfg.Input))
	if err != nil {
		m.fail(err)
		return outs
	}
	return proto.AppendBroadcast(outs, m.cfg.Params, "", SenderMsg{V: m.cfg.Input, Sig: s})
}

// Tick implements proto.Machine.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	m.nowTick = now
	wbaIn := proto.SplitChild(inbox, WBASession, func(in proto.Incoming) { m.ingest(now, in) })

	if r, ok := m.clock.BoundaryAt(now); ok {
		outs = m.boundary(int(r), outs)
	}

	if m.wbaSub != nil {
		outs = m.wbaSub.Tick(now, wbaIn, outs)
		m.finish()
	}
	return outs
}

// Output implements proto.Machine.
func (m *Machine) Output() (types.Value, bool) { return m.decision, m.decided }

// Done implements proto.Machine.
func (m *Machine) Done() bool {
	return m.decided && m.wbaSub != nil && m.wbaSub.Done()
}

// ingest stashes or applies one incoming message. A message for a phase
// outside 1..P is dropped before anything is encoded or verified: no
// boundary would ever read it.
func (m *Machine) ingest(now types.Tick, in proto.Incoming) {
	switch p := in.Payload.(type) {
	case SenderMsg:
		// Round-1 dissemination only (line 3); late sender messages are
		// ignored to keep the vetting phases meaningful.
		if in.From != m.cfg.Sender || now > m.clock.StartOf(2) {
			return
		}
		if m.vi != nil {
			return
		}
		env := EncodeSenderValue(SenderValue{V: p.V, Sig: p.Sig})
		if m.validator.Validate(env) {
			m.vi = env
		}
	case HelpReq:
		if m.inRange(p.Phase) && in.From == m.cfg.Params.Leader(p.Phase) {
			m.stash.Make(p.Phase).helpReq = true
		}
	case Reply:
		if m.leads(p.Phase) && m.validator.Validate(p.Val) {
			s := m.stash.Make(p.Phase)
			s.replies = append(s.replies, p.Val)
		}
	case IdkShare:
		if !m.leads(p.Phase) {
			return
		}
		s := m.stash.Make(p.Phase)
		if s.idk == nil {
			s.idk = m.small.NewCollector(m.validator.idkBase(p.Phase))
		}
		s.idk.Add(threshold.Share{Signer: in.From, Sig: p.Share})
	case Vetted:
		// Applied immediately: the value is certificate/signature-backed,
		// so adopting it early is safe (line 28–29 and line 8). Only a
		// VALID value concludes the phase — a Byzantine leader cannot
		// block its own phase's valid conclusion with a garbage prefix.
		if !m.inRange(p.Phase) || in.From != m.cfg.Params.Leader(p.Phase) {
			return
		}
		if s := m.stash.Get(p.Phase); s != nil && s.vetted {
			return
		}
		if m.validator.Validate(p.Val) {
			m.stash.Make(p.Phase).vetted = true
			m.vi = p.Val.Clone()
		}
	}
}

// boundary performs round-r actions.
func (m *Machine) boundary(r int, outs []proto.Outgoing) []proto.Outgoing {
	if r >= 2 && r <= m.Rounds() {
		phase := (r - 2) / roundsPerPhase
		w := (r-2)%roundsPerPhase + 1
		return m.phaseRound(phase+1, w, outs)
	}
	if r == m.Rounds()+1 && m.wbaSub == nil {
		return m.startWBA(outs)
	}
	return outs
}

// phaseRound implements Algorithm 2 for (phase, round w).
func (m *Machine) phaseRound(phase, w int, outs []proto.Outgoing) []proto.Outgoing {
	leader := m.cfg.Params.Leader(phase)
	amLeader := leader == m.cfg.ID
	switch w {
	case 1:
		if amLeader && m.vi == nil {
			return proto.AppendBroadcast(outs, m.cfg.Params, "", HelpReq{Phase: phase})
		}
	case 2:
		if s := m.stash.Get(phase); s == nil || !s.helpReq {
			return outs
		}
		if m.vi != nil {
			return proto.AppendUnicast(outs, leader, "", Reply{Phase: phase, Val: m.vi})
		}
		share, err := m.signer.Sign(m.validator.idkBase(phase))
		if err != nil {
			m.fail(err)
			return outs
		}
		return proto.AppendUnicast(outs, leader, "", IdkShare{Phase: phase, Share: share})
	case 3:
		s := m.stash.Get(phase)
		if !amLeader || s == nil || !s.helpReq {
			return outs
		}
		// Prefer a sender-signed reply (line 23), then any valid reply,
		// then an idk certificate from t+1 fresh shares (line 25).
		var fallbackVal types.Value
		for _, val := range s.replies {
			sv, _, err := DecodeValue(val)
			if err != nil {
				continue
			}
			if sv != nil {
				return proto.AppendBroadcast(outs, m.cfg.Params, "", Vetted{Phase: phase, Val: val})
			}
			if fallbackVal == nil {
				fallbackVal = val
			}
		}
		if fallbackVal != nil {
			return proto.AppendBroadcast(outs, m.cfg.Params, "", Vetted{Phase: phase, Val: fallbackVal})
		}
		if s.idk == nil {
			return outs
		}
		cert, err := s.idk.Cert()
		if err != nil {
			return outs
		}
		env := EncodeIDKCert(IDKCert{Phase: phase, Cert: cert})
		return proto.AppendBroadcast(outs, m.cfg.Params, "", Vetted{Phase: phase, Val: env})
	}
	return outs
}

// wbaConfig assembles the nested weak BA configuration.
func (m *Machine) wbaConfig() wba.Config {
	return wba.Config{
		Params:              m.cfg.Params,
		Crypto:              m.cfg.Crypto,
		ID:                  m.cfg.ID,
		Input:               m.vi,
		Predicate:           &m.validator,
		Tag:                 m.cfg.Tag + "/" + WBASession,
		Phases:              m.cfg.WBAPhases,
		DisableSilentPhases: m.cfg.DisableSilentPhases,
	}
}

// startWBA launches the weak BA with the vetted value (Alg. 1 line 9).
func (m *Machine) startWBA(outs []proto.Outgoing) []proto.Outgoing {
	inner := wba.NewMachine(m.wbaConfig())
	m.wbaMachine = inner
	m.wbaSub = proto.NewSub(WBASession, inner)
	return m.wbaSub.Begin(m.clock.StartOf(types.Round(m.Rounds()+1)), outs)
}

// finish maps the weak BA decision to the BB decision (lines 10–13).
func (m *Machine) finish() {
	if m.decided || m.wbaSub == nil {
		return
	}
	baDecision, ok := m.wbaSub.Output()
	if !ok {
		return
	}
	m.decided = true
	m.decidedAtTick = m.nowTick
	if sv, _, err := DecodeValue(baDecision); err == nil && sv != nil {
		// Guard against a Byzantine-crafted envelope that weak BA could
		// only decide if it was valid; double-check the signature anyway.
		if m.validator.Validate(baDecision) {
			m.decision = sv.V // a capped view into the decided envelope
			return
		}
	}
	m.decision = types.Bottom
}

// fail records the first internal error.
func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = fmt.Errorf("bb %v: %w", m.cfg.ID, err)
	}
}

// Component-signature accounting (proto.SigCarrier).

// SigCount implements proto.SigCarrier.
func (SenderMsg) SigCount() int { return 1 }

// SigCount implements proto.SigCarrier.
func (HelpReq) SigCount() int { return 0 }

// SigCount implements proto.SigCarrier.
func (m Reply) SigCount() int { return envelopeSigCount(m.Val) }

// SigCount implements proto.SigCarrier.
func (IdkShare) SigCount() int { return 1 }

// SigCount implements proto.SigCarrier.
func (m Vetted) SigCount() int { return envelopeSigCount(m.Val) }
