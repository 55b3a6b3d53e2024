// Package bbviaba implements the classic reduction the paper recalls at
// the start of Section 5 (and Figure 1 depicts): Byzantine Broadcast from
// strong BA. The designated sender first sends its value to everyone;
// then all processes run strong BA on what they received. If the sender
// is correct, every correct process enters the BA with the same input and
// strong unanimity forces that value.
//
// Because the only optimally-resilient strong BA in this repository (and
// in the paper) is binary, this reduction broadcasts one bit. It serves
// two roles: a working demonstration of Figure 1's right-hand box, and an
// experimental contrast — its cost degrades to the strong BA's quadratic
// regime at the first failure, while the paper's adaptive BB (package bb)
// stays linear up to the fallback threshold.
package bbviaba

import (
	"fmt"

	"adaptiveba/internal/core/strongba"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

const baSession = "ba"

// senderBase is what the sender signs over its bit: (domain, tag, sender,
// SHA-256(v)), the shape of bb's sender base.
func senderBase(tag string, sender types.ProcessID, v types.Value) []byte {
	return wire.ValueBase("bbviaba/sender", tag, int(sender), wire.Sum(v))
}

// SenderBit is the round-1 dissemination ⟨v⟩_sender.
type SenderBit struct {
	V   types.Value
	Sig sig.Signature
}

// Type implements proto.Payload.
func (SenderBit) Type() string { return "bbviaba/sender" }

// Words implements proto.Payload.
func (SenderBit) Words() int { return 1 }

// SigCount implements proto.SigCarrier.
func (SenderBit) SigCount() int { return 1 }

// Config parameterizes the reduction for one process.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	Sender types.ProcessID
	// Input is the broadcast bit (types.Zero or types.One); used when
	// ID == Sender.
	Input types.Value
	// Tag domain-separates this instance.
	Tag string
}

// Machine implements proto.Machine for the reduction.
type Machine struct {
	cfg   Config
	clock proto.RoundClock
	input types.Value // BA input adopted from the sender (default 0)
	baSub *proto.Sub
	ba    *strongba.Machine
	err   error
}

var _ proto.Machine = (*Machine)(nil)

// Validate reports what NewMachine would refuse: a sender outside the
// run, or a non-binary input at the sender.
func (cfg Config) Validate() error {
	if cfg.ID == cfg.Sender && !cfg.Input.IsBinary() {
		return fmt.Errorf("bbviaba: %w", strongba.ErrNotBinary)
	}
	if err := cfg.Params.CheckProcess(cfg.Sender); err != nil {
		return fmt.Errorf("bbviaba: %w", err)
	}
	return nil
}

// NewMachine builds the reduction machine.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, input: types.Zero}, nil
}

// MaxTicks bounds a full run: the sender's round, then the strong BA. It
// is a function of the run parameters alone.
func MaxTicks(params types.Params) types.Tick { return strongba.MaxTicks(params) + 4 }

// RanFallback reports whether the inner strong BA used its fallback.
func (m *Machine) RanFallback() bool { return m.ba != nil && m.ba.RanFallback() }

// Failed returns the first internal error (for tests).
func (m *Machine) Failed() error { return m.err }

// Begin implements proto.Machine: the sender disseminates its signed bit.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.clock = proto.NewRoundClock(now, 1)
	if m.cfg.ID != m.cfg.Sender {
		return outs
	}
	s, err := m.cfg.Crypto.Signer(m.cfg.ID).Sign(senderBase(m.cfg.Tag, m.cfg.Sender, m.cfg.Input))
	if err != nil {
		m.err = err
		return outs
	}
	m.input = m.cfg.Input.Clone()
	return proto.AppendBroadcast(outs, m.cfg.Params, "", SenderBit{V: m.cfg.Input, Sig: s})
}

// Tick implements proto.Machine.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	baIn := proto.SplitChild(inbox, baSession, func(in proto.Incoming) {
		// Round-1 dissemination: adopt a valid sender bit before the BA
		// starts.
		sb, ok := in.Payload.(SenderBit)
		if !ok || in.From != m.cfg.Sender || m.baSub != nil || !sb.V.IsBinary() {
			return
		}
		if m.cfg.Crypto.Scheme.Verify(m.cfg.Sender, senderBase(m.cfg.Tag, m.cfg.Sender, sb.V), sb.Sig) {
			m.input = sb.V.Clone()
		}
	})

	// The BA starts in round 2 for everyone simultaneously.
	if r, boundary := m.clock.BoundaryAt(now); boundary && r == 2 && m.baSub == nil {
		ba, err := strongba.NewMachine(strongba.Config{
			Params: m.cfg.Params, Crypto: m.cfg.Crypto, ID: m.cfg.ID,
			Input: m.input, Tag: m.cfg.Tag + "/" + baSession,
		})
		if err != nil {
			m.err = err
			return outs
		}
		m.ba = ba
		m.baSub = proto.NewSub(baSession, ba)
		outs = m.baSub.Begin(now, outs)
	}
	if m.baSub != nil {
		outs = m.baSub.Tick(now, baIn, outs)
	}
	return outs
}

// Output implements proto.Machine.
func (m *Machine) Output() (types.Value, bool) {
	if m.baSub == nil {
		return nil, false
	}
	return m.baSub.Output()
}

// Done implements proto.Machine.
func (m *Machine) Done() bool { return m.baSub != nil && m.baSub.Done() }
