// Package fallback provides A_fallback: a deterministic synchronous strong
// Byzantine Agreement with resilience n = 2t+1, used by the paper's weak
// BA (Algorithm 3) and failure-free strong BA (Algorithm 5) whenever the
// cheap adaptive path cannot make progress.
//
// The paper plugs in Momose–Ren's O(n²)-word protocol (DISC 2021). That
// protocol's text is not available offline, so this package substitutes
// the classic construction "strong BA from n parallel Byzantine
// Broadcasts": every process Dolev–Strong-broadcasts its input; after all
// instances resolve, everyone holds the same vector of n outputs and
// decides its plurality value. Correctness is identical (agreement,
// termination, strong unanimity at n = 2t+1 because the t+1 correct
// instances outvote the rest); the communication cost is O(n²) per
// instance in benign runs, i.e. O(n³) for the whole fallback versus
// Momose–Ren's O(n²). DESIGN.md §2 and EXPERIMENTS.md discuss how this
// substitution affects (only) the constant regime of the quadratic
// fallback rows.
//
// The machine runs with configurable round duration: the paper invokes
// A_fallback with δ' = 2δ (two ticks per round) so that correct processes
// entering up to δ apart still overlap in every round (Lemma 18).
package fallback

import (
	"bytes"
	"sort"
	"strconv"

	"adaptiveba/internal/baseline/dolevstrong"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// Config parameterizes the fallback BA for one process.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	// Input is this process's proposal.
	Input types.Value
	// Tag domain-separates this invocation from every other protocol layer
	// (signatures from one invocation must not validate in another).
	Tag string
	// RoundDur is ticks per round; the callers in this repository use 2
	// (δ' = 2δ). Defaults to 1.
	RoundDur int
}

// Machine implements strong BA via n parallel Dolev–Strong instances.
// The instances live under a proto.Mux, which demultiplexes the shared
// inbox in one O(inbox) pass; routing each instance separately with
// Sub.Route would rescan the inbox n times per tick — the dominant cost
// of the quadratic fallback regime at large n.
type Machine struct {
	cfg       Config
	mux       *proto.Mux
	instances []*proto.Sub
	decided   bool
	decision  types.Value
}

var _ proto.Machine = (*Machine)(nil)

// NewMachine builds the fallback machine.
func NewMachine(cfg Config) *Machine {
	if cfg.RoundDur < 1 {
		cfg.RoundDur = 1
	}
	return &Machine{cfg: cfg}
}

// Duration returns the ticks from Begin until the machine decides.
func (m *Machine) Duration() types.Tick {
	return types.Tick((m.cfg.Params.T + 1) * m.cfg.RoundDur)
}

// instanceName names the per-sender Dolev–Strong session.
func instanceName(sender types.ProcessID) string {
	return "i" + strconv.Itoa(int(sender))
}

// Begin implements proto.Machine: all n broadcast instances start
// simultaneously; this process is the designated sender of its own.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.mux = proto.NewMux()
	m.instances = make([]*proto.Sub, m.cfg.Params.N)
	for i := range m.instances {
		sender := types.ProcessID(i)
		name := instanceName(sender)
		inst := dolevstrong.NewMachine(dolevstrong.Config{
			Params:   m.cfg.Params,
			Crypto:   m.cfg.Crypto,
			ID:       m.cfg.ID,
			Sender:   sender,
			Input:    m.cfg.Input,
			Tag:      m.cfg.Tag + "/" + name,
			RoundDur: m.cfg.RoundDur,
		})
		m.instances[i] = m.mux.Add(name, inst)
		outs = m.instances[i].Begin(now, outs)
	}
	return outs
}

// Tick implements proto.Machine. The Mux preserves exactly the serial
// per-instance routing order (instances stepped in sender order, each
// seeing its messages in inbox order), so the refactor is invisible to
// the observable schedule.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	outs = m.mux.Tick(now, inbox, outs)
	if !m.decided && m.mux.Done() {
		m.decide()
	}
	return outs
}

// decide computes the plurality of the instance outputs: the most frequent
// non-⊥ value, ties broken by smallest byte order; ⊥ if every instance
// resolved to ⊥. Every correct process holds the same vector (agreement of
// each broadcast instance), so this is deterministic and common.
func (m *Machine) decide() {
	m.decided = true
	counts := make(map[string]int, len(m.instances))
	for _, inst := range m.instances {
		v, ok := inst.Output()
		if !ok || v.IsBottom() {
			continue
		}
		counts[string(v)]++
	}
	if len(counts) == 0 {
		m.decision = types.Bottom
		return
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := keys[0]
	for _, k := range keys[1:] {
		if counts[k] > counts[best] {
			best = k
		}
	}
	m.decision = types.Value(bytes.Clone([]byte(best)))
}

// Output implements proto.Machine.
func (m *Machine) Output() (types.Value, bool) { return m.decision, m.decided }

// Done implements proto.Machine.
func (m *Machine) Done() bool { return m.decided }
