package attacks

import (
	"math/rand"
	"sort"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// maxRecorded bounds the honest-traffic tape kept for replay/flood moves.
const maxRecorded = 4096

// action is one compiled, executable move: the genome's symbolic fields
// resolved against the run's protocol and parameters.
type action struct {
	tick  types.Tick
	from  types.ProcessID
	op    Op
	phase int         // resolved phase for phase-driven ops
	value types.Value // proposal value (wba ops)
	alt   types.Value // equivocation second face
	half  uint8       // equivocation/selective target half selector
	count int         // replay burst size
}

// genomeAdversary executes a compiled Genome inside the simulator. One
// value drives one run, so a genome can be evaluated many times
// deterministically by compiling it afresh for each run.
type genomeAdversary struct {
	adversary.Core

	genome   Genome
	protocol protocols.Kind
	tag      string
	rng      *rand.Rand
	maxTicks types.Tick

	actions  []action
	horizon  types.Tick
	recorded []sim.Message
	recIdx   int
	sender   types.Value // captured BB ⟨v⟩_sender envelope
}

// Compile builds the executable adversary for a genome against a run of
// protocol under signing tag (the instance tag its help requests are
// signed for). seed drives the replay-target choices; maxTicks is the
// run's tick budget and bounds every compiled tick so a schedule can
// never stall the run past its natural horizon. A genome with no
// corruptions yields a nil adversary (failure-free run).
func Compile(g Genome, protocol protocols.Kind, tag string, seed int64, maxTicks types.Tick) sim.Adversary {
	if len(g.Corruptions) == 0 {
		return nil
	}
	return &genomeAdversary{
		genome:   g,
		protocol: protocol,
		tag:      tag,
		rng:      rand.New(rand.NewSource(seed)),
		maxTicks: maxTicks,
	}
}

// Init implements sim.Adversary: capture the environment, then compile
// the genome against it (slot→process mapping and tick resolution need
// n and t, which only the Env provides).
func (a *genomeAdversary) Init(env sim.Env) {
	a.Core.Init(env)
	a.compile()
}

// CorruptedIDs returns the process ids a genome corrupts in an (n, t)
// run, in gene order: each slot reduced modulo n, then linear-probed to
// the next free id, so corruption genes never collide (the simulator
// rejects duplicate corruption of one process); genes past the t-th are
// dropped (decode allows up to 64, the run allows t).
func CorruptedIDs(g Genome, n, t int) []types.ProcessID {
	taken := make(map[types.ProcessID]bool, len(g.Corruptions))
	var ids []types.ProcessID
	for _, c := range g.Corruptions {
		if len(ids) >= t {
			break
		}
		id := types.ProcessID(int(c.Slot) % n)
		for taken[id] {
			id = types.ProcessID((int(id) + 1) % n)
		}
		taken[id] = true
		ids = append(ids, id)
	}
	return ids
}

// compile resolves the genome into the corruption schedule and the
// sorted action list. Every byte pattern compiles: fields are reduced
// modulo the run's parameters, ops that do not apply to the protocol
// become silent genes.
func (a *genomeAdversary) compile() {
	p := a.Env.Params

	// The corruption horizon keeps every takeover inside the run's
	// natural length, so a late-At gene delays corruption, never stalls
	// quiescence.
	horizon := adversary.Horizon(a.maxTicks)

	a.Schedule = a.Schedule[:0]
	for i, id := range CorruptedIDs(a.genome, p.N, p.T) {
		c := a.genome.Corruptions[i]
		at := types.Tick(c.At) % horizon
		a.Schedule = append(a.Schedule, sim.Corruption{ID: id, At: at})

		for _, m := range c.Moves {
			if act, ok := a.compileMove(m, id, at, horizon); ok {
				a.actions = append(a.actions, act)
			}
		}
	}
	sort.SliceStable(a.actions, func(i, j int) bool { return a.actions[i].tick < a.actions[j].tick })
	if len(a.actions) > 0 {
		a.horizon = a.actions[len(a.actions)-1].tick
	}
}

// compileMove resolves one move gene for corrupted process id (taken
// over at tick `at`). Returns ok=false for silent genes.
func (a *genomeAdversary) compileMove(m Move, id types.ProcessID, at types.Tick, horizon types.Tick) (action, bool) {
	p := a.Env.Params
	act := action{
		from:  id,
		op:    m.Op,
		half:  m.Target,
		count: 1 + int(m.Count)%8,
		value: types.Value("v"),
		alt:   types.Value("w"),
	}
	if m.Value%2 == 1 {
		act.value, act.alt = types.Value("w"), types.Value("u")
	}

	// A move can never run before its process is corrupted (the simulator
	// rejects sends from not-yet-corrupted identities), so resolved ticks
	// are floored at the corruption tick.
	clamp := func(tick types.Tick) types.Tick {
		if tick < at {
			return at
		}
		return tick
	}

	// Phase-driven ticks follow the protocols' own round layout
	// (wba.PhaseStart, bb.PhaseStart); BB's nested weak BA begins after
	// its n vetting phases.
	switch a.protocol {
	case protocols.WBA:
		phases := p.T + 1
		switch m.Op {
		case OpSilence:
			return act, false
		case OpProposeSpam, OpEquivocate:
			act.phase = 1 + int(m.Arg)%phases
			act.tick = clamp(wba.PhaseStart(act.phase))
		case OpHelpSpam: // the first help round, after the last phase
			act.tick = clamp(wba.PhaseStart(phases + 1))
		case OpReplay, OpFlood:
			act.tick = clamp(types.Tick(m.Arg) % horizon)
		}
	case protocols.BB:
		wbaStart := bb.PhaseStart(p.N + 1)
		switch m.Op {
		case OpSilence:
			return act, false
		case OpProposeSpam: // vetting-phase help request
			act.phase = 1 + int(m.Arg)%p.N
			act.tick = clamp(bb.PhaseStart(act.phase))
		case OpEquivocate, OpHelpSpam: // nested weak BA spam with the captured envelope
			act.phase = 1 + int(m.Arg)%(p.T+1)
			act.tick = clamp(wbaStart + wba.PhaseStart(act.phase))
		case OpReplay, OpFlood:
			act.tick = clamp(types.Tick(m.Arg) % horizon)
		}
	default:
		// Other protocols get the protocol-agnostic subset only.
		switch m.Op {
		case OpReplay, OpFlood:
			act.tick = clamp(types.Tick(m.Arg) % horizon)
		default:
			return act, false
		}
	}
	return act, true
}

// Observe implements sim.Adversary: BB runs capture the sender's signed
// round-1 value, the raw material for BB_valid nested-weak-BA spam.
func (a *genomeAdversary) Observe(_ types.Tick, _ types.ProcessID, inbox []proto.Incoming) {
	if a.protocol != protocols.BB || a.sender != nil {
		return
	}
	for _, in := range inbox {
		if sm, ok := in.Payload.(bb.SenderMsg); ok {
			a.sender = bb.EncodeSenderValue(bb.SenderValue{V: sm.V, Sig: sm.Sig})
			return
		}
	}
}

// Act implements sim.Adversary: record the rushing view for replay
// moves, then emit every action scheduled for this tick.
func (a *genomeAdversary) Act(now types.Tick, honest []sim.Message) []sim.Message {
	a.record(honest)
	var msgs []sim.Message
	for _, act := range a.actions {
		if act.tick != now {
			continue
		}
		msgs = a.emit(msgs, act)
	}
	return msgs
}

// record appends honest traffic to the bounded tape (ring overwrite once
// full, so late traffic stays observable).
func (a *genomeAdversary) record(honest []sim.Message) {
	for _, m := range honest {
		if len(a.recorded) < maxRecorded {
			a.recorded = append(a.recorded, m)
			continue
		}
		a.recorded[a.recIdx] = m
		a.recIdx = (a.recIdx + 1) % maxRecorded
	}
}

// emit appends the messages of one action.
func (a *genomeAdversary) emit(msgs []sim.Message, act action) []sim.Message {
	n := a.Env.Params.N
	switch act.op {
	case OpProposeSpam:
		if a.protocol == protocols.BB {
			for i := 0; i < n; i++ {
				msgs = append(msgs, sim.Message{
					From: act.from, To: types.ProcessID(i),
					Payload: bb.HelpReq{Phase: act.phase},
				})
			}
			return msgs
		}
		for i := 0; i < n; i++ {
			msgs = append(msgs, sim.Message{
				From: act.from, To: types.ProcessID(i),
				Payload: wba.Propose{Phase: act.phase, V: act.value},
			})
		}
	case OpEquivocate:
		if a.protocol == protocols.BB {
			// Selective release of the (valid) sender envelope: only the
			// chosen half sees the nested proposal.
			if a.sender == nil {
				return msgs
			}
			for i := 0; i < n; i++ {
				if uint8(i)%2 != act.half%2 {
					continue
				}
				msgs = append(msgs, sim.Message{
					From: act.from, To: types.ProcessID(i), Session: bb.WBASession,
					Payload: wba.Propose{Phase: act.phase, V: a.sender},
				})
			}
			return msgs
		}
		// Two-faced leader: value to one parity class, alt to the other.
		for i := 0; i < n; i++ {
			v := act.value
			if uint8(i)%2 == act.half%2 {
				v = act.alt
			}
			msgs = append(msgs, sim.Message{
				From: act.from, To: types.ProcessID(i),
				Payload: wba.Propose{Phase: act.phase, V: v},
			})
		}
	case OpHelpSpam:
		if a.protocol == protocols.BB {
			if a.sender == nil {
				return msgs
			}
			for i := 0; i < n; i++ {
				msgs = append(msgs, sim.Message{
					From: act.from, To: types.ProcessID(i), Session: bb.WBASession,
					Payload: wba.Propose{Phase: act.phase, V: a.sender},
				})
			}
			return msgs
		}
		share, err := a.Env.Crypto.Signer(act.from).Sign(wba.HelpReqBase(a.tag))
		if err != nil {
			return msgs
		}
		for i := 0; i < n; i++ {
			msgs = append(msgs, sim.Message{
				From: act.from, To: types.ProcessID(i),
				Payload: wba.HelpReq{Share: share},
			})
		}
	case OpReplay:
		if len(a.recorded) == 0 {
			return msgs
		}
		for k := 0; k < act.count; k++ {
			src := a.recorded[a.rng.Intn(len(a.recorded))]
			msgs = append(msgs, sim.Message{
				From: act.from, To: types.ProcessID(a.rng.Intn(n)),
				Session: src.Session, Payload: src.Payload,
			})
		}
	case OpFlood:
		if len(a.recorded) == 0 {
			return msgs
		}
		src := a.recorded[len(a.recorded)-1]
		for i := 0; i < n; i++ {
			msgs = append(msgs, sim.Message{
				From: act.from, To: types.ProcessID(i),
				Session: src.Session, Payload: src.Payload,
			})
		}
	}
	return msgs
}

// Quiescent implements sim.Adversary: no actions remain past the last
// compiled tick (pending corruptions are tracked by the engine itself).
func (a *genomeAdversary) Quiescent(now types.Tick) bool { return now > a.horizon }
