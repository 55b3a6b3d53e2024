// Package echobb is a simple always-quadratic authenticated broadcast
// baseline: the sender disseminates its signed value, every process echoes
// the signed value to everyone, and a process decides a value once it sees
// t+1 echoes of a single sender-signed value within two rounds (otherwise
// ⊥). It is the "obvious" O(n²)-word protocol a practitioner would write
// first; the experiments contrast its flat quadratic cost with the
// adaptive BB's O(n(f+1)).
//
// Correctness caveat (intentional, documented): unlike Dolev–Strong, this
// two-round echo protocol does NOT solve full Byzantine Broadcast — a
// Byzantine sender can split correct processes between a value and ⊥.
// It does guarantee validity (a correct sender's value is decided by all)
// and it never decides a non-sender value. It exists purely as a cost
// baseline for failure-free and crash runs, where it is correct.
package echobb

import (
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// signBase is what the sender signs.
func signBase(tag string, sender types.ProcessID, v types.Value) []byte {
	w := wire.NewWriter()
	w.PutString("echobb")
	w.PutString(tag)
	w.PutProcess(sender)
	w.PutValue(v)
	return w.Bytes()
}

// Echo carries the sender-signed value, either from the sender itself
// (round 1) or echoed by a peer (round 2).
type Echo struct {
	V   types.Value
	Sig sig.Signature // the sender's signature
}

// Type implements proto.Payload.
func (Echo) Type() string { return "echobb/echo" }

// Words implements proto.Payload.
func (Echo) Words() int { return 1 }

// Config parameterizes one instance for one process.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	Sender types.ProcessID
	Input  types.Value // used when ID == Sender
	Tag    string
}

// Machine implements the echo broadcast.
type Machine struct {
	cfg    Config
	clock  proto.RoundClock
	echoed bool
	// counts tracks, per value, the distinct processes that echoed it.
	counts   map[string]*types.BitSet
	sigs     map[string]sig.Signature
	decided  bool
	decision types.Value
}

var _ proto.Machine = (*Machine)(nil)

// NewMachine builds the machine.
func NewMachine(cfg Config) *Machine {
	return &Machine{
		cfg:    cfg,
		counts: make(map[string]*types.BitSet),
		sigs:   make(map[string]sig.Signature),
	}
}

// Begin implements proto.Machine.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.clock = proto.NewRoundClock(now, 1)
	if m.cfg.ID != m.cfg.Sender {
		return outs
	}
	s, err := m.cfg.Crypto.Signer(m.cfg.ID).Sign(signBase(m.cfg.Tag, m.cfg.Sender, m.cfg.Input))
	if err != nil {
		return outs
	}
	return proto.AppendBroadcast(outs, m.cfg.Params, "", Echo{V: m.cfg.Input, Sig: s})
}

// Tick implements proto.Machine.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	for _, in := range inbox {
		e, ok := in.Payload.(Echo)
		if !ok || m.decided {
			continue
		}
		if !m.cfg.Crypto.Scheme.Verify(m.cfg.Sender, signBase(m.cfg.Tag, m.cfg.Sender, e.V), e.Sig) {
			continue
		}
		key := string(e.V)
		if m.counts[key] == nil {
			m.counts[key] = types.NewBitSet(m.cfg.Params.N)
			m.sigs[key] = e.Sig.Clone()
		}
		m.counts[key].Add(in.From)
		// Echo the first sender-signed value seen, once.
		if !m.echoed {
			m.echoed = true
			outs = proto.AppendBroadcast(outs, m.cfg.Params, "", Echo{V: e.V, Sig: e.Sig})
		}
	}
	if r, ok := m.clock.BoundaryAt(now); ok && r >= 4 && !m.decided {
		// Echoes from round 2 have arrived by round 3's end; decide at 4.
		m.decided = true
		best := ""
		bestCount := 0
		for k, set := range m.counts {
			if c := set.Count(); c > bestCount || (c == bestCount && k < best) {
				best, bestCount = k, c
			}
		}
		if bestCount >= m.cfg.Params.SmallQuorum() {
			m.decision = types.Value(best).Clone()
		}
	}
	return outs
}

// Output implements proto.Machine.
func (m *Machine) Output() (types.Value, bool) { return m.decision, m.decided }

// Done implements proto.Machine.
func (m *Machine) Done() bool { return m.decided }

// SigCount implements proto.SigCarrier.
func (Echo) SigCount() int { return 1 }
