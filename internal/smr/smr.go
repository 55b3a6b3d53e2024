// Package smr builds a totally-ordered replicated log — the application
// the paper's introduction motivates ("BA is a key component in many
// distributed systems ... improving the communication complexity was the
// focus of many recent works and deployed systems") — on top of the
// adaptive Byzantine Broadcast.
//
// The log is a sequence of slots. Slot s is decided by one BB instance
// whose designated sender is the rotating proposer p_{s mod n}; the
// proposer broadcasts the next command from its local queue. All correct
// replicas commit identical entries in identical order: agreement per
// slot is exactly BB agreement, and total order follows from the fixed
// slot schedule. A slot whose proposer is faulty or has nothing to
// propose commits ⊥ and is skipped by the application.
//
// Because each slot costs O(n(f+1)) words, the log inherits the paper's
// adaptivity: a failure-free deployment pays O(n) words per committed
// command instead of the Θ(n²) of a classic PBFT-style broadcast round.
package smr

import (
	"fmt"

	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// Entry is one committed log position.
type Entry struct {
	Slot     int
	Proposer types.ProcessID
	// Command is the committed value; ⊥ (nil) marks a skipped slot.
	Command types.Value
}

// Config parameterizes one replica.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	// Tag domain-separates this log instance.
	Tag string
	// Slots is the number of slots to run (this demo-scale SMR is finite;
	// a deployment would run slots forever).
	Slots int
	// Queue holds the commands this replica proposes in its own slots,
	// in order.
	Queue []types.Value
	// SlotTicks overrides the per-slot schedule length. The default is
	// the BB machine's conservative worst-case duration, so every
	// correct replica starts every slot at the same tick even when a
	// slot needs the fallback.
	SlotTicks types.Tick
	// Stride is the tick offset between consecutive slot starts. The
	// default equals SlotTicks (strictly sequential slots); smaller
	// strides pipeline the broadcasts — instances are independent, so
	// overlap is safe and multiplies throughput by SlotTicks/Stride.
	Stride types.Tick
}

// Machine implements proto.Machine for one replica.
type Machine struct {
	cfg       Config
	slotTicks types.Tick
	stride    types.Tick
	start     types.Tick
	queuePos  int

	// mux demultiplexes the inbox to the live slots in one pass; subs
	// keeps slot-indexed references for the in-order commit loop. Slots
	// are never retired: a decided BB instance may still owe replies to
	// lagging peers, and dropping its traffic would change the schedule.
	mux     *proto.Mux
	subs    []*proto.Sub
	entries []Entry
	done    bool
	output  types.Value
}

var _ proto.Machine = (*Machine)(nil)

// NewMachine builds a replica.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("smr: need at least one slot, got %d", cfg.Slots)
	}
	if err := cfg.Params.CheckProcess(cfg.ID); err != nil {
		return nil, fmt.Errorf("smr: %w", err)
	}
	slotTicks := cfg.SlotTicks
	if slotTicks <= 0 {
		slotTicks = bb.MaxTicks(cfg.Params, 0, 0)
	}
	stride := cfg.Stride
	if stride <= 0 {
		stride = slotTicks
	}
	return &Machine{
		cfg:       cfg,
		slotTicks: slotTicks,
		stride:    stride,
		mux:       proto.NewMux(),
		subs:      make([]*proto.Sub, cfg.Slots),
	}, nil
}

// SlotTicks returns the per-slot schedule length.
func (m *Machine) SlotTicks() types.Tick { return m.slotTicks }

// MaxTicks bounds the whole log for simulator budgets.
func (m *Machine) MaxTicks() types.Tick {
	return m.stride*types.Tick(m.cfg.Slots-1) + m.slotTicks + 16
}

// Stride returns the tick offset between consecutive slot starts.
func (m *Machine) Stride() types.Tick { return m.stride }

// Proposer returns slot s's designated sender.
func (m *Machine) Proposer(slot int) types.ProcessID {
	return types.ProcessID(slot % m.cfg.Params.N)
}

// Log returns the committed entries so far, in slot order.
func (m *Machine) Log() []Entry {
	out := make([]Entry, len(m.entries))
	copy(out, m.entries)
	return out
}

// Committed returns the non-skipped commands in commit order.
func (m *Machine) Committed() []types.Value {
	var out []types.Value
	for _, e := range m.entries {
		if !e.Command.IsBottom() {
			out = append(out, e.Command.Clone())
		}
	}
	return out
}

// sessionName names slot s's BB session.
func sessionName(slot int) string { return fmt.Sprintf("s%d", slot) }

// Begin implements proto.Machine.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.start = now
	return m.startSlot(0, now, outs)
}

// startSlot spins up slot s's BB instance.
func (m *Machine) startSlot(slot int, now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	proposer := m.Proposer(slot)
	var input types.Value
	if proposer == m.cfg.ID && m.queuePos < len(m.cfg.Queue) {
		input = m.cfg.Queue[m.queuePos]
		m.queuePos++
	}
	inst := bb.NewMachine(bb.Config{
		Params: m.cfg.Params,
		Crypto: m.cfg.Crypto,
		ID:     m.cfg.ID,
		Sender: proposer,
		Input:  input,
		Tag:    fmt.Sprintf("%s/%s", m.cfg.Tag, sessionName(slot)),
	})
	m.subs[slot] = m.mux.Add(sessionName(slot), inst)
	return m.subs[slot].Begin(now, outs)
}

// Tick implements proto.Machine.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	// Open the next slot on schedule (with pipelining, several slots may
	// be live at once; each runs in its own session).
	elapsed := now - m.start
	if elapsed%m.stride == 0 {
		if next := int(elapsed / m.stride); next < m.cfg.Slots && m.subs[next] == nil {
			outs = m.startSlot(next, now, outs)
		}
	}

	// One routing pass over the shared inbox, then every live slot steps
	// in slot order — exactly the delivery order the old per-Sub Route
	// chain produced, at O(inbox) instead of O(slots × inbox).
	outs = m.mux.Tick(now, inbox, outs)

	// Commit decided slots in order.
	for len(m.entries) < m.cfg.Slots {
		slot := len(m.entries)
		sub := m.subs[slot]
		if sub == nil || !sub.Done() {
			break
		}
		v, _ := sub.Output()
		m.entries = append(m.entries, Entry{Slot: slot, Proposer: m.Proposer(slot), Command: v.Clone()})
	}
	if !m.done && len(m.entries) == m.cfg.Slots {
		m.done = true
		m.output = EncodeLog(m.entries)
	}
	return outs
}

// Output implements proto.Machine: the canonical encoding of the whole
// log, so replica agreement can be checked byte-for-byte.
func (m *Machine) Output() (types.Value, bool) { return m.output, m.done }

// Done implements proto.Machine.
func (m *Machine) Done() bool { return m.done }

// EncodeLog canonically serializes a log.
func EncodeLog(entries []Entry) types.Value {
	w := wire.NewWriter()
	w.PutInt(len(entries))
	for _, e := range entries {
		w.PutInt(e.Slot)
		w.PutProcess(e.Proposer)
		w.PutValue(e.Command)
	}
	return types.Value(w.Bytes())
}

// DecodeLog parses an encoded log.
func DecodeLog(v types.Value) ([]Entry, error) {
	r := wire.NewReader(v)
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("smr: decode log: %w", err)
	}
	if n < 0 || n > wire.MaxChunk/8 {
		return nil, fmt.Errorf("smr: implausible log length %d", n)
	}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Slot: r.Int(), Proposer: r.Process(), Command: r.Value()}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("smr: decode log: %w", err)
	}
	return entries, nil
}
