// Package strongba implements the paper's binary strong Byzantine
// Agreement (Section 7, Algorithm 5): optimal resilience n = 2t+1, O(n)
// words in the failure-free case and O(n²)+fallback otherwise.
//
// Run structure (one round per tick):
//
//	r1 input    — everyone sends its signed binary input to the leader
//	r2 propose  — the leader batches t+1 matching inputs into QC_propose
//	              (binary domain: with f = 0 some value must have t+1)
//	r3 decide   — processes answer a valid proposal with decide shares
//	r4 certify  — the leader batches n decide shares into QC_decide
//	r5 decide   — holders of QC_decide decide; everyone else broadcasts a
//	              fallback announcement
//	fallback    — 2δ after the first announcement, A_fallback runs with
//	              δ' = 2δ; decisions made before it are preserved through
//	              the safety window and strong unanimity
//
// One pseudocode repair, mirroring Algorithm 3's initialization: line 19
// (bu_decision ← decision) is applied only when a decision exists;
// otherwise bu_decision keeps the process's original input. Taking it
// literally would run the fallback on ⊥ inputs and break strong unanimity
// (Lemma 28's proof indeed argues with "the original initial values").
package strongba

import (
	"fmt"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/fallback"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

const fbSession = "fb"

// preRounds is the number of lock-step rounds before the fallback window.
const preRounds = 5

// Sign-base domains.
const (
	inputDomain  = "sba/input"
	decideDomain = "sba/decide"
)

// valueBase encodes (domain, tag, v) in one exact-size allocation.
func valueBase(domain, tag string, v types.Value) []byte {
	w := wire.NewWriterSize(wire.SizeBytes(len(domain)) + wire.SizeBytes(len(tag)) + wire.SizeBytes(len(v)))
	w.PutString(domain)
	w.PutString(tag)
	w.PutValue(v)
	return w.Bytes()
}

// inputBase is what input shares sign (round 1).
func inputBase(tag string, v types.Value) []byte { return valueBase(inputDomain, tag, v) }

// decideBase is what decide shares sign (round 3).
func decideBase(tag string, v types.Value) []byte { return valueBase(decideDomain, tag, v) }

// binaryBases holds one kind's sign bases for the two binary values,
// each encoded on first use: the protocol only ever signs or checks a
// base after v.IsBinary(), so two slots cover a whole run — the n shares
// a leader ingests, its certificate, and every process's check of it.
type binaryBases [2][]byte

func (b *binaryBases) get(domain, tag string, v types.Value) []byte {
	if !v.IsBinary() {
		return valueBase(domain, tag, v)
	}
	if b[v[0]] == nil {
		b[v[0]] = valueBase(domain, tag, v)
	}
	return b[v[0]]
}

// InputShare is the round-1 message ⟨v_i⟩_pi.
type InputShare struct {
	V     types.Value
	Share sig.Signature
}

// Type implements proto.Payload.
func (InputShare) Type() string { return "sba/input" }

// Words implements proto.Payload.
func (InputShare) Words() int { return 1 }

// Propose is the leader's round-2 broadcast ⟨propose, v, QC_propose(v)⟩.
type Propose struct {
	V    types.Value
	Cert *threshold.Cert // (t+1, n) over inputBase
}

// Type implements proto.Payload.
func (Propose) Type() string { return "sba/propose" }

// Words implements proto.Payload.
func (Propose) Words() int { return 1 }

// DecideShare is the round-3 answer ⟨decide, v⟩_pi.
type DecideShare struct {
	V     types.Value
	Share sig.Signature
}

// Type implements proto.Payload.
func (DecideShare) Type() string { return "sba/decide_share" }

// Words implements proto.Payload.
func (DecideShare) Words() int { return 1 }

// DecideMsg is the leader's round-4 broadcast ⟨decide, v, QC_decide(v)⟩.
type DecideMsg struct {
	V    types.Value
	Cert *threshold.Cert // (n, n) over decideBase
}

// Type implements proto.Payload.
func (DecideMsg) Type() string { return "sba/decide" }

// Words implements proto.Payload.
func (DecideMsg) Words() int { return 1 }

// Fallback announces the fallback path ⟨fallback, v, proof⟩; v/proof carry
// the sender's decision evidence if it has any.
type Fallback struct {
	V     types.Value
	Proof *threshold.Cert
}

// Type implements proto.Payload.
func (Fallback) Type() string { return "sba/fallback" }

// Words implements proto.Payload.
func (Fallback) Words() int { return 1 }

// Config parameterizes strong BA for one process.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	// Input must be a canonical binary value (types.Zero or types.One).
	Input types.Value
	// Leader is the designated leader (the paper fixes "leader ← p1"; the
	// identity is arbitrary, and the zero value selects p0).
	Leader types.ProcessID
	// Tag domain-separates this instance.
	Tag string
}

// ErrNotBinary reports a non-binary input.
var ErrNotBinary = fmt.Errorf("strongba: input must be binary")

// Machine implements proto.Machine for Algorithm 5.
type Machine struct {
	cfg    Config
	leader types.ProcessID
	signer *sig.Signer
	clock  proto.RoundClock
	small  *threshold.Scheme // (t+1, n)
	full   *threshold.Scheme // (n, n)

	decided  bool
	decision types.Value
	proof    *threshold.Cert

	buDecision types.Value
	buProof    *threshold.Cert

	inputShares  map[string]*threshold.Collector
	decideShares map[string]*threshold.Collector
	proposal     *Propose

	fallbackStart   types.Tick
	fbSub           *proto.Sub
	fbBuffer        []proto.Incoming
	fbAdopted       bool
	pendingAnnounce *Fallback
	ranFallback     bool
	decidedAtTick   types.Tick
	nowTick         types.Tick

	inputBases, decideBases binaryBases // sign bases under cfg.Tag

	err error
}

var _ proto.Machine = (*Machine)(nil)

func (m *Machine) inputBase(v types.Value) []byte {
	return m.inputBases.get(inputDomain, m.cfg.Tag, v)
}

func (m *Machine) decideBase(v types.Value) []byte {
	return m.decideBases.get(decideDomain, m.cfg.Tag, v)
}

// Validate reports what NewMachine would refuse: a non-binary input or a
// leader outside the run.
func (cfg Config) Validate() error {
	if !cfg.Input.IsBinary() {
		return fmt.Errorf("%w: %v", ErrNotBinary, cfg.Input)
	}
	return cfg.Params.CheckProcess(cfg.Leader)
}

// NewMachine builds the strong BA machine.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{
		cfg:           cfg,
		leader:        cfg.Leader,
		signer:        cfg.Crypto.Signer(cfg.ID),
		small:         cfg.Crypto.Threshold(cfg.Params.SmallQuorum()),
		full:          cfg.Crypto.Threshold(cfg.Params.N),
		buDecision:    cfg.Input.Clone(),
		inputShares:   make(map[string]*threshold.Collector),
		decideShares:  make(map[string]*threshold.Collector),
		fallbackStart: -1,
	}, nil
}

// MaxTicks bounds a full run, fallback included, for simulator budgets
// and the schedules of enclosing protocols. It is a function of the run
// parameters alone, so a schedule is sized without building a machine.
func MaxTicks(params types.Params) types.Tick {
	return types.Tick(preRounds) + 6 + types.Tick((params.T+2)*2) + 4
}

// RanFallback reports whether this process executed A_fallback.
func (m *Machine) RanFallback() bool { return m.ranFallback }

// DecidedAtTick reports when (in δ ticks) this process decided.
func (m *Machine) DecidedAtTick() types.Tick { return m.decidedAtTick }

// Failed returns the first internal error (for tests).
func (m *Machine) Failed() error { return m.err }

// Begin implements proto.Machine: round 1 sends the signed input.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.nowTick = now
	m.clock = proto.NewRoundClock(now, 1)
	share, err := m.signer.Sign(m.inputBase(m.cfg.Input))
	if err != nil {
		m.fail(err)
		return outs
	}
	return proto.AppendUnicast(outs, m.leader, "", InputShare{V: m.cfg.Input, Share: share})
}

// Tick implements proto.Machine.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	m.nowTick = now
	fbIn := proto.SplitChild(inbox, fbSession, func(in proto.Incoming) { m.ingest(now, in) })
	if m.pendingAnnounce != nil {
		outs = proto.AppendBroadcast(outs, m.cfg.Params, "", *m.pendingAnnounce)
		m.pendingAnnounce = nil
	}
	if r, ok := m.clock.BoundaryAt(now); ok && int(r) >= 2 && int(r) <= preRounds {
		outs = m.boundary(now, int(r), outs)
	}
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
	if !m.decided {
		return false
	}
	if m.fallbackStart >= 0 {
		return m.fbSub != nil && m.fbSub.Done()
	}
	return true
}

// ingest processes one incoming message.
func (m *Machine) ingest(now types.Tick, in proto.Incoming) {
	switch p := in.Payload.(type) {
	case InputShare:
		if m.cfg.ID != m.leader || !p.V.IsBinary() {
			return
		}
		key := string(p.V)
		if m.inputShares[key] == nil {
			m.inputShares[key] = m.small.NewCollector(m.inputBase(p.V))
		}
		m.inputShares[key].Add(threshold.Share{Signer: in.From, Sig: p.Share})
	case Propose:
		if in.From != m.leader || m.proposal != nil {
			return
		}
		if !p.V.IsBinary() || !m.small.Verify(m.inputBase(p.V), p.Cert) {
			return
		}
		cp := p
		m.proposal = &cp
	case DecideShare:
		if m.cfg.ID != m.leader || !p.V.IsBinary() {
			return
		}
		key := string(p.V)
		if m.decideShares[key] == nil {
			m.decideShares[key] = m.full.NewCollector(m.decideBase(p.V))
		}
		m.decideShares[key].Add(threshold.Share{Signer: in.From, Sig: p.Share})
	case DecideMsg:
		// Certificate-backed: accept whenever it arrives.
		if !p.V.IsBinary() || !m.full.Verify(m.decideBase(p.V), p.Cert) {
			return
		}
		m.setDecision(p.V, p.Cert)
	case Fallback:
		m.onFallback(now, p)
	}
}

// onFallback implements lines 20–27.
func (m *Machine) onFallback(now types.Tick, p Fallback) {
	// Adopt decision evidence while undecided.
	if !m.decided && p.Proof != nil && p.V.IsBinary() &&
		m.full.Verify(m.decideBase(p.V), p.Proof) {
		m.buDecision = p.V.Clone()
		m.buProof = p.Proof
	}
	if m.fallbackStart < 0 {
		m.fallbackStart = now + 2
		m.pendingAnnounce = &Fallback{V: m.buDecision, Proof: m.buProof}
	}
}

// boundary performs round-r actions (r in 2..5).
func (m *Machine) boundary(now types.Tick, r int, outs []proto.Outgoing) []proto.Outgoing {
	amLeader := m.cfg.ID == m.leader
	switch r {
	case 2:
		if !amLeader {
			return outs
		}
		for _, key := range []string{string(types.Zero), string(types.One)} {
			shares := m.inputShares[key]
			if shares == nil {
				continue
			}
			v := types.Value(key)
			cert, err := shares.Cert()
			if err != nil {
				continue
			}
			return proto.AppendBroadcast(outs, m.cfg.Params, "", Propose{V: v, Cert: cert})
		}
	case 3:
		if m.proposal == nil {
			return outs
		}
		share, err := m.signer.Sign(m.decideBase(m.proposal.V))
		if err != nil {
			m.fail(err)
			return outs
		}
		return proto.AppendUnicast(outs, m.leader, "", DecideShare{V: m.proposal.V, Share: share})
	case 4:
		if !amLeader {
			return outs
		}
		for _, key := range []string{string(types.Zero), string(types.One)} {
			shares := m.decideShares[key]
			if shares == nil {
				continue
			}
			v := types.Value(key)
			cert, err := shares.Cert()
			if err != nil {
				continue
			}
			return proto.AppendBroadcast(outs, m.cfg.Params, "", DecideMsg{V: v, Cert: cert})
		}
	case 5:
		// Line 13–18: holders of QC_decide decided via ingest; everyone
		// else announces the fallback.
		if !m.decided && m.fallbackStart < 0 {
			m.fallbackStart = now + 2
			return proto.AppendBroadcast(outs, m.cfg.Params, "", Fallback{})
		}
	}
	return outs
}

// setDecision records the decision once.
func (m *Machine) setDecision(v types.Value, proof *threshold.Cert) {
	if m.decided {
		return
	}
	m.decided = true
	m.decision = v.Clone()
	m.proof = proof
	m.decidedAtTick = m.nowTick
	m.buDecision = m.decision
	m.buProof = proof
}

// startFallback launches A_fallback (line 28).
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

// finishFallback adopts the fallback output (lines 29–30).
func (m *Machine) finishFallback() {
	if m.fbSub == nil || !m.fbSub.Done() || m.fbAdopted {
		return
	}
	m.fbAdopted = true
	if m.decided {
		return
	}
	fv, _ := m.fbSub.Output()
	m.setDecision(fv, nil)
}

// fail records the first internal error.
func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = fmt.Errorf("strongba %v: %w", m.cfg.ID, err)
	}
}

// Component-signature accounting (proto.SigCarrier).

// SigCount implements proto.SigCarrier.
func (InputShare) SigCount() int { return 1 }

// SigCount implements proto.SigCarrier.
func (m Propose) SigCount() int { return m.Cert.Count() }

// SigCount implements proto.SigCarrier.
func (DecideShare) SigCount() int { return 1 }

// SigCount implements proto.SigCarrier.
func (m DecideMsg) SigCount() int { return m.Cert.Count() }

// SigCount implements proto.SigCarrier.
func (m Fallback) SigCount() int { return m.Proof.Count() }

// DecideBaseFor exposes the decide-share sign base for external invariant
// monitors and attack construction.
func DecideBaseFor(tag string, v types.Value) []byte { return decideBase(tag, v) }
