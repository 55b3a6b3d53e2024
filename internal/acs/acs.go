// Package acs implements a BKR-style Agreement on Common Subset round
// (Ben-Or–Kelmer–Rabin, PODC '94 — the n-proposer batching architecture
// behind HoneyBadgerBFT-family systems) on top of the paper's
// primitives: each of the n processes proposes a batch of requests, n
// concurrent adaptive-BB instances disseminate the batches, and n
// binary strong-BA votes (1 iff the corresponding BB delivered a batch)
// decide the committed subset. The winning batches, concatenated in
// ascending proposer-ID order, form one log entry — so one round
// commits up to n×batch requests for one round's words, amortizing the
// per-request word cost by the batch size.
//
// # Synchronous port of the BKR coupling rule
//
// Asynchronous BKR inputs 1 to BA_i the moment BB_i delivers, and once
// n−t BAs have decided 1 it inputs 0 to the rest (the coupling rule
// that guarantees termination and |subset| ≥ n−t). A lock-step port
// cannot stagger BA starts per process — the round clocks of a BA
// instance must anchor at the same tick on every correct process or its
// quorum rounds shear apart. This machine therefore places ONE vote
// boundary at BB's worst-case bound (bb.MaxTicks), where synchrony
// guarantees every honest process has decided every BB instance — the
// ≥ n−t honest proposers' BBs unanimously non-⊥, the rest unanimously
// agreed (possibly ⊥). At that boundary the coupling rule is applied
// degenerately: the ≥ n−t delivered indices get 1-votes and every
// remaining index is voted 0 immediately rather than waited on. Honest
// votes are unanimous per index, so strong unanimity pins every BA's
// outcome and the committed subset has ≥ n−t members — and because the
// subset is pinned by unanimity, no process can see BA_i = 1 without
// holding batch i, which is why this port needs no post-vote batch
// fetch protocol.
//
// The BB children are retired at the vote boundary (mirroring the
// engine's own session retirement); any batch-dissemination traffic
// arriving after the
// boundary — e.g. replayed by an adversary — is counted by Late(), not
// silently dropped, and surfaces in the engine's EngineLate metric.
package acs

import (
	"fmt"
	"strconv"

	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/strongba"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// Config parameterizes one ACS round for one process.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	// Input is this process's proposed batch, pre-framed by EncodeBatch.
	// nil proposes an empty batch (still a non-⊥ broadcast, so an idle
	// proposer wins its vote with zero requests).
	Input types.Value
	// Tag domain-separates this round's signatures; child i signs under
	// Tag+"/b<i>" (broadcast) and Tag+"/v<i>" (vote).
	Tag string
}

// Machine implements proto.Machine for one ACS round.
type Machine struct {
	cfg    Config
	mux    *proto.Mux
	bcasts []*bb.Machine       // retained past retirement for output reads
	votes  []*strongba.Machine // nil until the vote boundary
	vsubs  []*proto.Sub

	start    types.Tick
	voteTick types.Tick

	batches   []types.Value // BB outputs captured at the vote boundary
	committed *types.BitSet

	delivered int  // broadcasts captured non-⊥ (vote input 1)
	voting    bool // every vote started; the broadcast stage is closed
	decided   bool
	decision  types.Value

	decidedAtTick types.Tick
	err           error
}

var _ proto.Machine = (*Machine)(nil)

// NewMachine builds the ACS machine. The schedule (vote boundary, total
// budget) is a pure function of Params, so every correct process
// transitions in lockstep regardless of its batch.
func NewMachine(cfg Config) *Machine {
	return &Machine{cfg: cfg, mux: proto.NewMux()}
}

// MaxTicks conservatively bounds a full round for scheduler budgets:
// the broadcast stage runs to BB's worst case, the vote stage to strong
// BA's (which already absorbs a crashed vote leader's fallback).
func MaxTicks(params types.Params) types.Tick {
	return voteBoundary(params) + strongba.MaxTicks(params) + 4
}

// voteBoundary is BB's worst-case bound at the default phase counts —
// the ones bbConfig leaves in place.
func voteBoundary(params types.Params) types.Tick { return bb.MaxTicks(params, 0, 0) }

// VoteBoundary returns the round-relative tick at which broadcasts are
// closed out and the vote stage starts (for tests and adversaries that
// target the retirement edge).
func (m *Machine) VoteBoundary() types.Tick { return voteBoundary(m.cfg.Params) }

// Committed returns the decided subset as a bitmap of winning proposers
// (nil until decided).
func (m *Machine) Committed() *types.BitSet { return m.committed }

// Late counts messages that arrived for retired broadcast sessions or
// unknown sessions — the ACS-level contribution to EngineLate.
func (m *Machine) Late() int64 { return m.mux.Late() + m.mux.Unrouted() }

// RanFallback reports whether any vote instance executed A_fallback on
// this process (e.g. because a crashed proposer was that vote's leader).
func (m *Machine) RanFallback() bool {
	for _, v := range m.votes {
		if v != nil && v.RanFallback() {
			return true
		}
	}
	return false
}

// DecidedAtTick reports when (in δ ticks) this process decided.
func (m *Machine) DecidedAtTick() types.Tick { return m.decidedAtTick }

// Failed returns the first internal error (for tests).
func (m *Machine) Failed() error { return m.err }

// Begin implements proto.Machine: all n broadcast instances start at
// once, each under its own session ("b<i>") and signature domain.
func (m *Machine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.start = now
	m.voteTick = now + voteBoundary(m.cfg.Params)
	n := m.cfg.Params.N
	m.bcasts = make([]*bb.Machine, n)
	m.batches = make([]types.Value, n)
	m.votes = make([]*strongba.Machine, n)
	m.vsubs = make([]*proto.Sub, n)
	for i := 0; i < n; i++ {
		child := bb.NewMachine(m.bbConfig(types.ProcessID(i)))
		m.bcasts[i] = child
		outs = m.mux.Add(bName(i), child).Begin(now, outs)
	}
	return outs
}

// Tick implements proto.Machine.
func (m *Machine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	outs = m.mux.Tick(now, inbox, outs)
	if !m.voting && now >= m.voteTick {
		outs = m.closeVotes(now, outs)
	}
	if m.voting && !m.decided {
		m.finish(now)
	}
	return outs
}

// closeVotes closes the broadcast stage at the vote boundary: every BB
// output is captured (undecided ones vote 0 outright — the BKR coupling
// rule applied degenerately, since synchrony guarantees ≥ n−t honest
// proposers' BBs have delivered by now), the broadcast sessions retire,
// and all n votes begin. Fewer than n−t delivered broadcasts is a loud
// failure.
func (m *Machine) closeVotes(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	for i, child := range m.bcasts {
		if v, ok := child.Output(); ok && !v.IsBottom() {
			m.batches[i] = v
			m.delivered++
		}
		if err := child.Failed(); err != nil {
			m.fail(err)
		}
		m.mux.Retire(bName(i))
		outs = m.startVote(i, now, outs)
	}
	m.voting = true
	if min := m.cfg.Params.N - m.cfg.Params.T; m.delivered < min {
		m.fail(fmt.Errorf("only %d of %d broadcasts delivered by the vote boundary (fault model exceeded)", m.delivered, min))
	}
	return outs
}

// startVote opens vote i — led by proposer i, input 1 iff b_i delivered
// a batch — under its own session and signature domain.
func (m *Machine) startVote(i int, now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	input := types.Zero
	if m.batches[i] != nil {
		input = types.One
	}
	child, err := strongba.NewMachine(m.baConfig(types.ProcessID(i), input))
	if err != nil {
		m.fail(err)
		return outs
	}
	m.votes[i] = child
	sub := m.mux.Add(vName(i), child)
	m.vsubs[i] = sub
	return sub.Begin(now, outs)
}

// finish concludes the round once every vote has decided: the committed
// subset is the 1-voted indices, and the output is the canonical
// acs/result frame — winning batches concatenated in ascending
// proposer-ID order. Strong unanimity over unanimous honest votes makes
// both the subset and the batch bytes identical on every honest
// process.
func (m *Machine) finish(now types.Tick) {
	for _, sub := range m.vsubs {
		if sub == nil || !sub.Done() {
			return
		}
	}
	n := m.cfg.Params.N
	committed := types.NewBitSet(n)
	var batches []types.Value
	for i := 0; i < n; i++ {
		v, ok := m.votes[i].Output()
		if !ok || !v.Equal(types.One) {
			continue
		}
		committed.Add(types.ProcessID(i))
		batch := m.batches[i]
		if batch == nil {
			// A 1-decision for a batch this process never saw delivered
			// is impossible under ≤t faults (unanimous 0-votes pin the
			// BA at 0); commit a deterministic empty batch if the fault
			// model is exceeded rather than diverging on nil.
			batch = EncodeBatch(nil)
		}
		batches = append(batches, batch)
	}
	m.committed = committed
	m.decision = EncodeResult(&Result{Committed: committed, Batches: batches})
	m.decided = true
	m.decidedAtTick = now
}

// Output implements proto.Machine: the EncodeResult frame of the
// committed subset.
func (m *Machine) Output() (types.Value, bool) { return m.decision, m.decided }

// Done implements proto.Machine.
func (m *Machine) Done() bool { return m.decided && m.mux.Done() }

func (m *Machine) bbConfig(sender types.ProcessID) bb.Config {
	cfg := bb.Config{
		Params: m.cfg.Params, Crypto: m.cfg.Crypto, ID: m.cfg.ID,
		Sender: sender, Tag: m.cfg.Tag + "/" + bName(int(sender)),
	}
	if m.cfg.ID == sender {
		cfg.Input = m.cfg.Input
		if cfg.Input == nil {
			cfg.Input = EncodeBatch(nil)
		}
	}
	return cfg
}

func (m *Machine) baConfig(idx types.ProcessID, input types.Value) strongba.Config {
	return strongba.Config{
		Params: m.cfg.Params, Crypto: m.cfg.Crypto, ID: m.cfg.ID,
		Input: input, Leader: idx, Tag: m.cfg.Tag + "/" + vName(int(idx)),
	}
}

func bName(i int) string { return "b" + strconv.Itoa(i) }
func vName(i int) string { return "v" + strconv.Itoa(i) }

func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = fmt.Errorf("acs %v: %w", m.cfg.ID, err)
	}
}
