// Package engine runs many agreement instances — any kind of the
// protocol table, SMR log slots included — in flight simultaneously over
// one shared simulator run and crypto suite. It is the one runtime behind
// the public adaptiveba calls and the pipelined replicated log:
// each instance lives in its own session, inbound traffic is demuxed to
// per-session protocol machines by session ID (proto.Mux), and the
// per-engine report aggregates per-session word/message/round metrics.
//
// # Admission
//
// In-flight sessions are bounded by an admission window of Inflight
// concurrent instances. Every request is known up front, so requests
// beyond the window simply wait their turn on the schedule below.
//
// # Scheduling and determinism
//
// Synchronous processes cannot observe when *other* processes finish a
// session, so admission cannot react to completions without extra
// agreement traffic. Instead the engine uses a static stride schedule:
// with D the worst-case duration of the longest session and W the
// window, session k begins at tick k·ceil(D/W) on every process. The
// schedule is a pure function of the request index, so all correct
// processes open, serve, and retire every session at identical ticks —
// at most W sessions are ever live, W=1 reduces to strictly serial
// one-at-a-time execution, and because sessions are isolated by session
// ID and machines are tick-offset invariant (their round clocks anchor
// at Begin), per-session decisions and word counts are byte-identical
// at every window size.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// Request describes one agreement instance to run.
type Request struct {
	// Kind is the session's protocol, any kind of the protocol table (bb
	// when unset).
	Kind protocols.Kind
	// Sender is the designated sender of the broadcast kinds.
	Sender types.ProcessID
	// Value is the BB broadcast value / unanimous agreement input; nil
	// is ⊥ (a sender with nothing to broadcast, an ACS proposer with an
	// empty batch), and the binary protocols read anything but 0 or 1 as
	// 1.
	Value types.Value
	// Inputs, when non-nil, assigns each process its own input (length
	// N) and overrides Value.
	Inputs []types.Value
	// Predicate overrides weak BA's validity predicate (default: accept
	// any non-⊥ value).
	Predicate func(types.Value) bool
}

// Config parameterizes one engine run.
type Config struct {
	N int
	// T overrides the corruption threshold (default floor((n-1)/2)).
	T int
	// F crashes processes 1..F at tick 0 for the whole run (every
	// session sees the same failure pattern, as one deployment would).
	F int
	// Adversary, if set, overrides the F-derived crash adversary with a
	// custom one built against the run's tick budget (e.g. a replay
	// adversary whose horizon targets a session retirement edge).
	Adversary func(maxTicks types.Tick) sim.Adversary
	// Inflight bounds the number of concurrently live sessions (the
	// admission window W). 0 admits as many as requested; 1 runs
	// sessions strictly serially.
	Inflight int
	// Seed is every session's protocol seed (committee samples its
	// committee from it), the run's signing domain (its root tag) and,
	// when Keys is unset, the label the key ring is derived from.
	Seed int64
	// Keys is the run's key source (proto.Setup). The zero value derives
	// the ring from "engine-<Seed>" and the dealer from "engine-dealer",
	// so a run's every byte follows from its Seed.
	Keys proto.Keys
	// OnSend, if set, observes every charged message of the run (see
	// sim.Config.OnSend); sim.TraceTo builds the text trace on it.
	OnSend func(now types.Tick, m sim.Message, honest bool)
	// Halt, if set, is polled every tick; returning true aborts the run
	// with sim.ErrHalted (the cancellation hook for context callers).
	Halt func(types.Tick) bool
}

// Errors returned by Run.
var (
	ErrConfig     = errors.New("engine: invalid configuration")
	ErrNoSessions = errors.New("engine: no sessions requested")
)

// SessionResult is the outcome of one session.
type SessionResult struct {
	Index int
	Name  string // session ID on the wire ("s<Index>")
	Kind  protocols.Kind
	// Start is the tick the session began on every process.
	Start types.Tick

	// Decisions maps every honest process to its output for this
	// session (present only if it decided).
	Decisions  map[types.ProcessID]types.Value
	Decision   types.Value
	Agreement  bool
	AllDecided bool

	Words    int64
	Messages int64
	// FallbackProcs counts honest processes that executed A_fallback in
	// this session.
	FallbackProcs int
	// DecisionTick is the latest tick at which an honest process decided
	// this session (absolute; subtract Start for the session's decision
	// latency in δ units, which is 0 for the kinds that do not report
	// it — see protocols.Progress).
	DecisionTick types.Tick
	// ByLayer is the session's word breakdown with the session prefix
	// stripped, so it lines up with a solo run of the same protocol
	// ("(root)", "wba", "wba/fallback", ...).
	ByLayer map[string]metrics.Stats
}

// Report is the aggregate outcome of an engine run.
type Report struct {
	N, T, F  int
	Sessions []SessionResult
	// Stride is the tick offset between consecutive session starts;
	// SessionTicks is the per-session worst-case schedule length D.
	Stride       types.Tick
	SessionTicks types.Tick
	Ticks        types.Tick
	TimedOut     bool
	// Metrics.Honest.Bytes meters every payload's encoded size
	// (protocols.SizeOf). Words weigh every value as one word, so bytes
	// are what show payload-size effects (inline values against
	// constant-size anchors).
	Metrics metrics.Report
}

// Fingerprint canonically renders per-session observables — decisions
// of every honest process, word and message counts — for byte-identical
// comparison across window sizes (pipelined vs serial execution).
func (r *Report) Fingerprint() string {
	var b strings.Builder
	for i := range r.Sessions {
		s := &r.Sessions[i]
		fmt.Fprintf(&b, "%s kind=%s words=%d msgs=%d decided=%t agree=%t:",
			s.Name, s.Kind, s.Words, s.Messages, s.AllDecided, s.Agreement)
		ids := make([]int, 0, len(s.Decisions))
		for id := range s.Decisions {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, " %d=%q", id, []byte(s.Decisions[types.ProcessID(id)]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Run executes the requested sessions to completion (or Halt/MaxTicks).
func Run(cfg Config, reqs []Request) (*Report, error) {
	if len(reqs) == 0 {
		return nil, ErrNoSessions
	}
	if cfg.N < 3 {
		return nil, fmt.Errorf("%w: n=%d", ErrConfig, cfg.N)
	}
	params, err := types.ParamsFor(cfg.N, cfg.T)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if cfg.F < 0 || cfg.F > params.T {
		return nil, fmt.Errorf("%w: f=%d with t=%d", ErrConfig, cfg.F, params.T)
	}

	keys := cfg.Keys
	if keys == (proto.Keys{}) {
		keys = proto.Derived(fmt.Sprintf("engine-%d", cfg.Seed), "engine-dealer")
	}
	crypto, err := proto.Setup(params, keys, threshold.ModeCompact)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	window := cfg.Inflight
	if window <= 0 || window > len(reqs) {
		window = len(reqs)
	}

	b := &builder{params: params, crypto: crypto, tag: "eng/" + strconv.FormatInt(cfg.Seed, 10), seed: uint64(cfg.Seed), reqs: reqs}
	sched, err := plan(b, window)
	if err != nil {
		return nil, err
	}
	procs := make([]*procMachine, cfg.N)
	factory := func(id types.ProcessID) proto.Machine {
		procs[id] = sched.root(id)
		return procs[id]
	}

	var adv sim.Adversary
	if cfg.Adversary != nil {
		adv = cfg.Adversary(sched.budget)
	} else if cfg.F > 0 {
		adv = adversary.NewCrash(adversary.CrashSet(cfg.F, false)...)
	}

	res, err := sim.Run(sim.Config{
		Params:    params,
		Crypto:    crypto,
		Factory:   factory,
		SizeOf:    protocols.SizeOf,
		Adversary: adv,
		MaxTicks:  sched.budget,
		OnSend:    cfg.OnSend,
		Halt:      cfg.Halt,
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		N: cfg.N, T: params.T, F: cfg.F,
		Sessions:     make([]SessionResult, len(reqs)),
		Stride:       sched.stride,
		SessionTicks: sched.duration,
		Ticks:        res.Ticks,
		TimedOut:     res.TimedOut,
		Metrics:      res.Report,
	}
	// Demux losses: messages for already-retired sessions are discarded
	// and counted, never silently dropped. ACS sessions retire their own
	// broadcast children at the vote boundary, so their nested late
	// counts roll up too.
	for _, p := range procs {
		if p == nil || p.mux == nil {
			continue
		}
		rep.Metrics.EngineLate += p.mux.Late() + p.mux.Unrouted()
		for _, child := range p.children {
			if m, ok := child.(*acs.Machine); ok && m != nil {
				rep.Metrics.EngineLate += m.Late()
			}
		}
	}
	perLayer := splitLayers(rep.Metrics.ByLayer)
	for k := range rep.Sessions {
		s := &rep.Sessions[k]
		s.Index, s.Name, s.Kind = k, "s"+strconv.Itoa(k), reqs[k].kind()
		s.Start = sched.starts[k]
		s.Decisions = make(map[types.ProcessID]types.Value)
		s.AllDecided = true
		for _, id := range res.Honest {
			m := procs[id].children[k]
			if m == nil {
				s.AllDecided = false
				continue
			}
			if v, ok := m.Output(); ok {
				s.Decisions[id] = v
			} else {
				s.AllDecided = false
			}
			ranFallback, decidedAt := protocols.Progress(m, s.Start)
			if ranFallback {
				s.FallbackProcs++
			}
			s.DecisionTick = max(s.DecisionTick, s.Start+decidedAt)
		}
		s.Decision, s.Agreement = sim.Agreement(s.Decisions, res.Honest)
		if ls := perLayer[s.Name]; ls != nil {
			s.ByLayer = ls
			for _, st := range ls {
				s.Words += st.Words
				s.Messages += st.Messages
			}
		}
	}
	return rep, nil
}

// splitLayers groups the engine-wide layer breakdown by leading session
// segment, stripping the prefix so each session's map matches a solo
// run's layers.
func splitLayers(byLayer map[string]metrics.Stats) map[string]map[string]metrics.Stats {
	out := make(map[string]map[string]metrics.Stats)
	for layer, st := range byLayer {
		head, rest := proto.SplitSession(layer)
		if rest == "" {
			rest = "(root)"
		}
		m := out[head]
		if m == nil {
			m = make(map[string]metrics.Stats)
			out[head] = m
		}
		m[rest] = st
	}
	return out
}

// kind is the request's protocol, BB when unset.
func (r *Request) kind() protocols.Kind {
	if r.Kind == "" {
		return protocols.BB
	}
	return r.Kind
}

// builder constructs per-session protocol machines through the protocol
// table.
type builder struct {
	params types.Params
	crypto *proto.Crypto
	tag    string // root signing tag "eng/<seed>"; session k signs under tag + "/sk"
	seed   uint64 // the protocols' run seed (committee's sampling)
	reqs   []Request
	cfgs   []protocols.Config // per session, filled by plan
}

// input is process id's input to session k: its entry of Inputs when
// set, else Value, which the binary kinds (strong BA, bb-via-ba) read as
// 1 unless it is 0 or 1.
func (b *builder) input(k int, id types.ProcessID) types.Value {
	req := &b.reqs[k]
	switch {
	case req.Inputs != nil:
		if int(id) < len(req.Inputs) {
			return req.Inputs[id]
		}
		return nil
	case (req.kind() == protocols.StrongBA || req.kind() == protocols.BBViaBA) && !req.Value.IsBinary():
		return types.One
	}
	return req.Value
}

// machine builds session k's machine for process id.
func (b *builder) machine(k int, id types.ProcessID) proto.Machine {
	return b.reqs[k].kind().MustNew(b.cfgs[k], id, b.input(k, id))
}

// schedule is the static stride schedule of a run's sessions: with D the
// worst-case duration of the longest session and W the window, session k
// begins at k·ceil(D/W) and retires D ticks later, on every process.
type schedule struct {
	build    func(k int, id types.ProcessID) proto.Machine
	names    []string
	starts   []types.Tick
	duration types.Tick // D
	stride   types.Tick // ceil(D/W)
	budget   types.Tick // the run's tick budget: the last start plus 2D
}

// plan validates b's requests — every process's configuration of every
// session, before any machine exists — and lays them out on the stride
// schedule of a window of w ≥ 1 concurrent sessions.
func plan(b *builder, w int) (*schedule, error) {
	s := &schedule{
		build:  b.machine,
		names:  make([]string, len(b.reqs)),
		starts: make([]types.Tick, len(b.reqs)),
	}
	b.cfgs = make([]protocols.Config, len(b.reqs))
	for k := range b.reqs {
		req := &b.reqs[k]
		kind := req.kind()
		// Session k signs under its own tag, so sessions cannot replay
		// each other's certificates.
		b.cfgs[k] = protocols.Config{
			Params: b.params, Crypto: b.crypto, Tag: b.tag + "/s" + strconv.Itoa(k),
			Sender: req.Sender, Predicate: req.Predicate, Seed: b.seed,
		}
		if err := kind.Validate(b.cfgs[k], func(id types.ProcessID) types.Value { return b.input(k, id) }); err != nil {
			return nil, fmt.Errorf("%w: session %d: %v", ErrConfig, k, err)
		}
		s.duration = max(s.duration, kind.MaxTicks(b.cfgs[k]))
		s.names[k] = "s" + strconv.Itoa(k)
	}
	s.stride = (s.duration + types.Tick(w) - 1) / types.Tick(w)
	for k := range s.starts {
		s.starts[k] = types.Tick(k) * s.stride
	}
	s.budget = s.starts[len(s.starts)-1] + 2*s.duration
	return s, nil
}

// root builds process id's root machine on the schedule.
func (s *schedule) root(id types.ProcessID) *procMachine {
	return &procMachine{id: id, sched: s, mux: proto.NewMux(), children: make([]proto.Machine, len(s.starts))}
}

// procMachine is one process's root machine: a Mux of per-session
// protocol machines on the stride schedule. Admission, service, and
// retirement are pure functions of the tick, so all correct processes
// transition in lockstep.
type procMachine struct {
	id    types.ProcessID
	sched *schedule

	mux      *proto.Mux
	children []proto.Machine // retained past retirement for result extraction
	next     int             // next session index to admit
	retired  int             // next session index to retire (FIFO)
}

var _ proto.Machine = (*procMachine)(nil)

func (p *procMachine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return p.admit(now, outs)
}

// admit opens every session scheduled at now, appending its Begin
// traffic.
func (p *procMachine) admit(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	s := p.sched
	for p.next < len(s.starts) && s.starts[p.next] == now {
		k := p.next
		p.next++
		m := s.build(k, p.id)
		p.children[k] = m
		outs = p.mux.Add(s.names[k], m).Begin(now, outs)
	}
	return outs
}

func (p *procMachine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	// Retire sessions whose schedule has elapsed: machines are done (or
	// out of budget), stragglers count as late. Newly admitted sessions
	// Begin at now and are first stepped at now+1 — identical to a solo
	// run beginning at that tick.
	s := p.sched
	for p.retired < p.next && now >= s.starts[p.retired]+s.duration {
		p.mux.Retire(s.names[p.retired])
		p.retired++
	}
	return p.admit(now, p.mux.Tick(now, inbox, outs))
}

// Output canonically encodes every session's (decided, value) pair, so
// sim-level agreement checks cover the whole engine run at once. The
// encoding is sized first and written into one exact-size buffer.
func (p *procMachine) Output() (types.Value, bool) {
	if !p.Done() {
		return nil, false
	}
	size := wire.SizeInt
	for _, m := range p.children {
		v, ok := m.Output()
		if !ok {
			v = nil
		}
		size += wire.SizeInt + wire.SizeBytes(len(v))
	}
	w := wire.NewWriterSize(size)
	w.PutInt(len(p.children))
	for _, m := range p.children {
		v, ok := m.Output()
		if ok {
			w.PutInt(1)
			w.PutValue(v)
		} else {
			w.PutInt(0)
			w.PutValue(nil)
		}
	}
	return types.Value(w.Bytes()), true
}

func (p *procMachine) Done() bool {
	return p.next == len(p.sched.starts) && p.mux.Done()
}
