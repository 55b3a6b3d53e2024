package attacks

import (
	"math/rand"
	"sort"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/baseline/floodset"
	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// maxRecorded bounds the honest-traffic tape kept for replay/flood moves.
const maxRecorded = 4096

// bbSender is the BB sender a lead gene on BB plays and signs as:
// protocols.Config.Sender's zero value, which every run Compile serves
// uses.
const bbSender types.ProcessID = 0

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
	count int         // replay burst size; lead: its faces, 1 or 2
	// quorum is the threshold a lead mints at; to is the process a lead
	// denies the finalize, a release's one recipient (-1: all) or a
	// FloodSet equivocation's one recipient.
	quorum int
	to     types.ProcessID
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
	correct  []types.ProcessID // the processes never corrupted, in id (rank) order
	horizon  types.Tick
	recorded []sim.Message
	recIdx   int
	sender   types.Value // captured BB ⟨v⟩_sender envelope
	// shares holds, by the message they sign, the weak BA vote, decide
	// and help-request shares the coalition received, when a lead or
	// release gene mints from them.
	shares map[string][]threshold.Share
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
			a.compileMove(m, id, at, horizon)
		}
	}
	sort.SliceStable(a.actions, func(i, j int) bool { return a.actions[i].tick < a.actions[j].tick })
	for i := 0; i < p.N; i++ {
		if id := types.ProcessID(i); !a.Corrupted(id) {
			a.correct = append(a.correct, id)
		}
	}
	// The adversary acts until its last action, and a release keeps the
	// run up through the fallback it may start, within the run's budget.
	for _, act := range a.actions {
		end := act.tick
		if act.op == OpRelease {
			end = min(act.tick+types.Tick(8*p.T+40), a.maxTicks-1)
		}
		a.horizon = max(a.horizon, end)
	}
}

// compileMove appends the actions of one move gene for corrupted process
// id (taken over at tick `at`); a silent gene appends none.
func (a *genomeAdversary) compileMove(m Move, id types.ProcessID, at types.Tick, horizon types.Tick) {
	p := a.Env.Params
	act := action{
		from:  id,
		op:    m.Op,
		half:  m.Target,
		count: 1 + int(m.Count)%8,
		value: types.Value("v"),
		alt:   types.Value("w"),
		to:    -1,
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

	if m.Op == OpReplay || m.Op == OpFlood { // every protocol
		act.tick = clamp(types.Tick(m.Arg) % horizon)
		a.actions = append(a.actions, act)
		return
	}

	// Phase-driven ticks follow the protocols' own round layout
	// (wba.PhaseStart, bb.PhaseStart); BB's nested weak BA begins after
	// its n vetting phases.
	switch a.protocol {
	case protocols.WBA:
		phases := p.T + 1
		switch m.Op {
		case OpSilence:
			return
		case OpProposeSpam, OpEquivocate:
			act.phase = 1 + int(m.Arg)%phases
			act.tick = clamp(wba.PhaseStart(act.phase))
		case OpHelpSpam: // the first help round, after the last phase
			act.tick = clamp(wba.PhaseStart(phases + 1))
		case OpLead: // the phase id leads, if any, in three steps
			act.phase = int(id)
			if act.phase < 1 || act.phase > phases {
				return
			}
			act.count, act.quorum, act.to = 1+int(m.Count)%2, p.Quorum(), types.ProcessID(int(m.Target)%p.N)
			if m.Arg%2 == 1 {
				act.quorum = p.SmallQuorum()
			}
			a.shares = make(map[string][]threshold.Share)
			a.steps(act, at, wba.PhaseStart(act.phase), 0, 2, 4)
			return
		case OpRelease:
			act.tick = clamp(types.Tick(m.Arg) % horizon)
			if m.Count%2 == 1 {
				act.to = types.ProcessID(int(m.Target) % p.N)
			}
			a.shares = make(map[string][]threshold.Share)
		}
	case protocols.BB:
		wbaStart := bb.PhaseStart(p.N + 1)
		switch m.Op {
		case OpSilence, OpRelease:
			return
		case OpLead: // the sender's round 1 on p0, else the vetting phase id leads
			act.count, act.phase = 1+int(m.Count)%2, int(id)
			if id == bbSender {
				a.steps(act, at, 0, 0)
				return
			}
			help := act // the phase's help request, as OpProposeSpam sends it
			help.op = OpProposeSpam
			a.steps(help, at, bb.PhaseStart(act.phase), 0)
			a.steps(act, at, bb.PhaseStart(act.phase), 2)
			return
		case OpProposeSpam: // vetting-phase help request
			act.phase = 1 + int(m.Arg)%p.N
			act.tick = clamp(bb.PhaseStart(act.phase))
		case OpEquivocate, OpHelpSpam: // nested weak BA spam with the captured envelope
			act.phase = 1 + int(m.Arg)%(p.T+1)
			act.tick = clamp(wbaStart + wba.PhaseStart(act.phase))
		}
	case protocols.FloodSet:
		if m.Op != OpEquivocate {
			return
		}
		act.tick, act.to = at, types.ProcessID(int(m.Target)%p.N)
	default:
		// Other protocols get the protocol-agnostic ops only.
		return
	}
	a.actions = append(a.actions, act)
}

// steps appends act at start plus each offset; a step before the
// takeover at is dropped, since the honest machine ran it.
func (a *genomeAdversary) steps(act action, at, start types.Tick, offsets ...types.Tick) {
	for _, off := range offsets {
		if act.tick = start + off; act.tick >= at {
			a.actions = append(a.actions, act)
		}
	}
}

// Observe implements sim.Adversary: BB runs capture the sender's signed
// round-1 value, the raw material for BB_valid nested-weak-BA spam; weak
// BA runs collect the shares their lead and release genes mint from.
func (a *genomeAdversary) Observe(_ types.Tick, _ types.ProcessID, inbox []proto.Incoming) {
	switch {
	case a.protocol == protocols.BB && a.sender == nil:
		for _, in := range inbox {
			if sm, ok := in.Payload.(bb.SenderMsg); ok {
				a.sender = bb.EncodeSenderValue(bb.SenderValue{V: sm.V, Sig: sm.Sig})
				return
			}
		}
	case a.shares != nil:
		a.collect(inbox)
	}
}

// collect keeps every weak BA vote, decide and help-request share in
// inbox by the message it signs. A correct process sends votes and decide
// shares only to the phase's leader. Shares are checked when minted from.
func (a *genomeAdversary) collect(inbox []proto.Incoming) {
	for _, in := range inbox {
		var msg []byte
		var sh sig.Signature
		switch p := in.Payload.(type) {
		case wba.Vote:
			msg, sh = wba.VoteBase(a.tag, p.Phase, p.V), p.Share
		case wba.Decide:
			msg, sh = wba.DecideBase(a.tag, p.Phase, p.V), p.Share
		case wba.HelpReq:
			msg, sh = wba.HelpReqBase(a.tag), p.Share
		default:
			continue
		}
		a.shares[string(msg)] = append(a.shares[string(msg)], threshold.Share{Signer: in.From, Sig: sh})
	}
}

// mint returns the certificate on msg at threshold k that the shares
// received on it form with the signature of every process the coalition
// has corrupted by now, or nil if they are fewer than k valid signers.
func (a *genomeAdversary) mint(k int, msg []byte, now types.Tick) *threshold.Cert {
	c := a.Env.Crypto.Threshold(k).NewCollector(msg)
	for _, cor := range a.Schedule {
		if cor.At > now {
			continue
		}
		if sg, err := a.Env.Crypto.Signer(cor.ID).Sign(msg); err == nil {
			c.Add(threshold.Share{Signer: cor.ID, Sig: sg})
		}
	}
	for _, sh := range a.shares[string(msg)] {
		c.Add(sh)
	}
	cert, err := c.Cert()
	if err != nil {
		return nil
	}
	return cert
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
		if a.protocol == protocols.FloodSet {
			// The mid-broadcast crash: the last flood reaches one process.
			return append(msgs, sim.Message{From: act.from, To: act.to, Payload: floodset.Flood{Values: []types.Value{act.value}}})
		}
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
	case OpLead:
		if a.protocol == protocols.BB {
			return a.vetStep(msgs, act)
		}
		return a.leadStep(msgs, act)
	case OpRelease:
		cert := a.mint(a.Env.Params.SmallQuorum(), wba.HelpReqBase(a.tag), act.tick)
		if cert == nil {
			return msgs
		}
		for i := 0; i < n; i++ {
			if id := types.ProcessID(i); !a.Corrupted(id) && (act.to < 0 || act.to == id) {
				msgs = append(msgs, sim.Message{From: act.from, To: id, Payload: wba.FallbackCert{Cert: cert}})
			}
		}
	case OpFlood:
		if len(a.recorded) == 0 {
			return msgs
		}
		// The newest entry is the slot before the next one record
		// overwrites (the last slot until the tape first wraps).
		src := a.recorded[(a.recIdx+len(a.recorded)-1)%len(a.recorded)]
		for i := 0; i < n; i++ {
			msgs = append(msgs, sim.Message{
				From: act.from, To: types.ProcessID(i),
				Session: src.Session, Payload: src.Payload,
			})
		}
	}
	return msgs
}

// leadStep appends one step of an OpLead gene, face by face: the
// proposal, or the commit or finalize if its certificate forms, to the
// correct processes of the face's rank class, the finalize not to the
// denied process.
func (a *genomeAdversary) leadStep(msgs []sim.Message, act action) []sim.Message {
	step := act.tick - wba.PhaseStart(act.phase)
	for i, v := range []types.Value{act.value, act.alt}[:act.count] {
		var p proto.Payload
		switch step {
		case 0:
			p = wba.Propose{Phase: act.phase, V: v}
		case 2:
			if cert := a.mint(act.quorum, wba.VoteBase(a.tag, act.phase, v), act.tick); cert != nil {
				p = wba.Commit{Phase: act.phase, V: v, Cert: cert, Level: 1}
			}
		case 4:
			if cert := a.mint(act.quorum, wba.DecideBase(a.tag, act.phase, v), act.tick); cert != nil {
				p = wba.Finalized{Phase: act.phase, V: v, Cert: cert}
			}
		}
		if p == nil {
			continue
		}
		for rank, id := range a.correct {
			if rank%act.count == i && (step != 4 || id != act.to) {
				msgs = append(msgs, sim.Message{From: act.from, To: id, Payload: p})
			}
		}
	}
	return msgs
}

// vetStep appends the signed step of an OpLead gene on BB. The sender
// sends its first face to the even-ranked correct processes in round 1.
// Vetting phase j's leader, having asked for help at the phase's start
// (so the processes without a value answer idk), pushes its last face,
// signed as the sender, to the odd-ranked correct processes at +2. A
// face is signed only if the sender is corrupted by then.
func (a *genomeAdversary) vetStep(msgs []sim.Message, act action) []sim.Message {
	if !a.corruptedBy(bbSender, act.tick) {
		return msgs
	}
	leader := act.from != bbSender
	face := act.value
	if leader {
		face = []types.Value{act.value, act.alt}[act.count-1]
	}
	sg, err := a.Env.Crypto.Signer(bbSender).Sign(bb.SenderBase(a.tag, bbSender, face))
	if err != nil {
		return msgs
	}
	var p proto.Payload = bb.SenderMsg{V: face, Sig: sg}
	parity := 0
	if leader {
		p, parity = bb.Vetted{Phase: act.phase, Val: bb.EncodeSenderValue(bb.SenderValue{V: face, Sig: sg})}, 1
	}
	for rank, id := range a.correct {
		if rank%2 == parity {
			msgs = append(msgs, sim.Message{From: act.from, To: id, Payload: p})
		}
	}
	return msgs
}

// corruptedBy reports whether the coalition has taken id over by now.
func (a *genomeAdversary) corruptedBy(id types.ProcessID, now types.Tick) bool {
	for _, c := range a.Schedule {
		if c.ID == id {
			return c.At <= now
		}
	}
	return false
}

// Quiescent implements sim.Adversary: no actions remain past the last
// compiled tick, or past a release's fallback (pending corruptions are
// tracked by the engine itself).
func (a *genomeAdversary) Quiescent(now types.Tick) bool { return now > a.horizon }
