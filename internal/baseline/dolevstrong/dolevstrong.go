// Package dolevstrong implements the classic Dolev–Strong authenticated
// broadcast protocol (1983): Byzantine Broadcast for any t < n in t+1
// rounds using signature chains. In this repository it plays two roles:
//
//   - the historical baseline the paper contrasts against (Section 4): its
//     word complexity is Ω(n²) even in failure-free runs because every
//     process relays chains of signatures, while the adaptive BB of
//     Section 5 pays O(n) words when f = 0;
//   - the building block of internal/fallback's strong BA (n parallel
//     instances + plurality), our stand-in for Momose–Ren's A_fallback.
//
// Values travel with a chain of distinct signatures, the designated
// sender's first. A chain processed at local round boundary b is accepted
// if it carries at least min(b-1, t+1) valid distinct signatures. A
// process extracts at most two distinct values per instance and relays
// each newly extracted value once, with its own signature appended. After
// the boundary of round t+2 the process decides: the unique extracted
// value, or ⊥ if the (faulty) sender equivocated or stayed silent.
package dolevstrong

import (
	"fmt"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// signBase is the byte string every chain signature covers: the instance
// tag, the designated sender, and the value. Domain separation across
// protocol layers comes from the tag. The bytes are views into w's
// buffer; callers must finish with them before returning w to the pool.
func signBase(w *wire.Writer, tag string, sender types.ProcessID, v types.Value) []byte {
	w.PutString("ds")
	w.PutString(tag)
	w.PutProcess(sender)
	w.PutValue(v)
	return w.Bytes()
}

// Chain is an ordered list of distinct signers and their signatures over
// the same sign base. The first signer must be the instance's sender.
type Chain struct {
	Signers []types.ProcessID
	Sigs    []sig.Signature
}

// Len returns the chain length.
func (c Chain) Len() int { return len(c.Signers) }

// Has reports whether id already signed the chain.
func (c Chain) Has(id types.ProcessID) bool {
	for _, s := range c.Signers {
		if s == id {
			return true
		}
	}
	return false
}

// Clone deep-copies the chain.
func (c Chain) Clone() Chain {
	out := Chain{
		Signers: append([]types.ProcessID(nil), c.Signers...),
		Sigs:    make([]sig.Signature, len(c.Sigs)),
	}
	for i, s := range c.Sigs {
		out.Sigs[i] = s.Clone()
	}
	return out
}

// Valid checks structure and signatures: non-empty, first signer is the
// sender, signers distinct and in range, every signature valid, and length
// at least minLen.
func (c Chain) Valid(scheme sig.Scheme, tag string, sender types.ProcessID, v types.Value, minLen int) bool {
	if c.Len() < minLen || c.Len() == 0 || len(c.Sigs) != len(c.Signers) {
		return false
	}
	if c.Signers[0] != sender {
		return false
	}
	if !c.distinctSigners(scheme.N()) {
		return false
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	base := signBase(w, tag, sender, v)
	for i, id := range c.Signers {
		if !scheme.Verify(id, base, c.Sigs[i]) {
			return false
		}
	}
	return true
}

// distinctSigners checks range and pairwise distinctness without the
// per-relay map the validator used to allocate: honest chains are a
// handful of links, so a quadratic scan is both faster and alloc-free.
// Only an adversarially long chain (length bounded by n via distinctness)
// falls back to a map.
func (c Chain) distinctSigners(n int) bool {
	if len(c.Signers) > 64 {
		seen := make(map[types.ProcessID]bool, len(c.Signers))
		for _, id := range c.Signers {
			if id < 0 || int(id) >= n || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	for i, id := range c.Signers {
		if id < 0 || int(id) >= n {
			return false
		}
		for j := 0; j < i; j++ {
			if c.Signers[j] == id {
				return false
			}
		}
	}
	return true
}

// Extend returns a copy of the chain with signer's signature appended.
func (c Chain) Extend(signer *sig.Signer, tag string, sender types.ProcessID, v types.Value) (Chain, error) {
	w := wire.GetWriter()
	s, err := signer.Sign(signBase(w, tag, sender, v))
	wire.PutWriter(w)
	if err != nil {
		return Chain{}, fmt.Errorf("dolevstrong: extend chain: %w", err)
	}
	out := c.Clone()
	out.Signers = append(out.Signers, signer.ID())
	out.Sigs = append(out.Sigs, s)
	return out, nil
}

// NewChain starts a chain with the sender's own signature.
func NewChain(signer *sig.Signer, tag string, v types.Value) (Chain, error) {
	w := wire.GetWriter()
	s, err := signer.Sign(signBase(w, tag, signer.ID(), v))
	wire.PutWriter(w)
	if err != nil {
		return Chain{}, fmt.Errorf("dolevstrong: new chain: %w", err)
	}
	return Chain{
		Signers: []types.ProcessID{signer.ID()},
		Sigs:    []sig.Signature{s},
	}, nil
}

// Relay is the protocol's only message: a value plus its signature chain.
type Relay struct {
	Sender types.ProcessID // the instance's designated sender
	V      types.Value
	Chain  Chain
}

// Type implements proto.Payload.
func (r Relay) Type() string { return "ds/relay" }

// Words implements proto.Payload: one word for the value plus one word per
// signature (the model packs a constant number of signatures per word;
// signature chains cannot be batched by a threshold scheme because every
// link signs the same statement but the chain's length is semantic).
func (r Relay) Words() int { return 1 + r.Chain.Len() }

// Config parameterizes one Dolev–Strong instance for one process.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	Sender types.ProcessID
	// Input is broadcast if ID == Sender; ignored otherwise.
	Input types.Value
	// Tag domain-separates instances across protocol layers.
	Tag string
	// RoundDur is the tick length of one round (>= 1).
	RoundDur int
}

// Machine runs one Dolev–Strong instance for one process.
type Machine struct {
	cfg    Config
	signer *sig.Signer
	clock  proto.RoundClock

	extracted []types.Value // at most 2 distinct accepted values
	pending   []Relay       // received since the last boundary
	decided   bool
	decision  types.Value
}

var _ proto.Machine = (*Machine)(nil)

// NewMachine builds the instance machine.
func NewMachine(cfg Config) *Machine {
	if cfg.RoundDur < 1 {
		cfg.RoundDur = 1
	}
	return &Machine{cfg: cfg, signer: cfg.Crypto.Signer(cfg.ID)}
}

// Rounds returns the total number of protocol rounds including the final
// decision boundary: the machine decides at the start of round t+2.
func (m *Machine) Rounds() int { return m.cfg.Params.T + 2 }

// Duration returns the number of ticks from Begin to decision.
func (m *Machine) Duration() types.Tick {
	return types.Tick((m.Rounds() - 1) * m.cfg.RoundDur)
}

// Begin implements proto.Machine. The sender broadcasts its signed value
// in round 1.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.clock = proto.NewRoundClock(now, m.cfg.RoundDur)
	if m.cfg.ID != m.cfg.Sender {
		return outs
	}
	chain, err := NewChain(m.signer, m.cfg.Tag, m.cfg.Input)
	if err != nil {
		// Signing with own identity cannot fail with validated params.
		return outs
	}
	m.extract(m.cfg.Input)
	return proto.AppendBroadcast(outs, m.cfg.Params, "", Relay{Sender: m.cfg.Sender, V: m.cfg.Input, Chain: chain})
}

// Tick implements proto.Machine. A relay the next boundary would skip —
// the instance has decided, holds two values, or has extracted this one
// (extracted only grows, so the answer cannot change by then) — is
// dropped on arrival: a decided instance buffers nothing however long its
// session stays open, a live one not the n-1 echoes of what it relayed.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	if m.decided {
		return outs
	}
	for _, in := range inbox {
		if r, ok := in.Payload.(Relay); ok && r.Sender == m.cfg.Sender && len(m.extracted) < 2 && !m.has(r.V) {
			m.pending = append(m.pending, r)
		}
	}
	r, boundary := m.clock.BoundaryAt(now)
	if !boundary {
		return outs
	}
	if r >= 2 && int(r) <= m.Rounds() {
		outs = m.processPending(int(r), outs)
	}
	if int(r) >= m.Rounds() {
		m.decide()
	}
	return outs
}

// processPending validates buffered relays at round boundary b and relays
// newly extracted values. The buffer's array is kept for the next round.
func (m *Machine) processPending(b int, outs []proto.Outgoing) []proto.Outgoing {
	required := b - 1
	if maxReq := m.cfg.Params.T + 1; required > maxReq {
		required = maxReq
	}
	for _, r := range m.pending {
		if len(m.extracted) >= 2 {
			break
		}
		if m.has(r.V) {
			continue
		}
		if !r.Chain.Valid(m.cfg.Crypto.Scheme, m.cfg.Tag, m.cfg.Sender, r.V, required) {
			continue
		}
		m.extract(r.V)
		// Relay with own signature appended, unless it is somehow present
		// (cannot happen for honest runs, but stay defensive) or the run
		// is past its last sending round.
		if r.Chain.Has(m.cfg.ID) || b >= m.Rounds() {
			continue
		}
		ext, err := r.Chain.Extend(m.signer, m.cfg.Tag, m.cfg.Sender, r.V)
		if err != nil {
			continue
		}
		outs = proto.AppendBroadcast(outs, m.cfg.Params, "", Relay{Sender: m.cfg.Sender, V: r.V, Chain: ext})
	}
	m.pending = m.pending[:0]
	return outs
}

func (m *Machine) has(v types.Value) bool {
	for _, e := range m.extracted {
		if e.Equal(v) {
			return true
		}
	}
	return false
}

func (m *Machine) extract(v types.Value) {
	if len(m.extracted) < 2 && !m.has(v) {
		m.extracted = append(m.extracted, v.Clone())
	}
}

func (m *Machine) decide() {
	m.decided = true
	m.pending = nil
	if len(m.extracted) == 1 {
		m.decision = m.extracted[0]
		return
	}
	m.decision = types.Bottom // silent or equivocating sender
}

// Output implements proto.Machine.
func (m *Machine) Output() (types.Value, bool) { return m.decision, m.decided }

// Done implements proto.Machine.
func (m *Machine) Done() bool { return m.decided }

// SigCount implements proto.SigCarrier: a relay transports its whole
// signature chain.
func (r Relay) SigCount() int { return r.Chain.Len() }
