// Package engine runs many agreement instances — any kind of the
// protocol table, SMR log slots included — in flight simultaneously over
// one crypto suite and one simulation per session group (see Session
// groups). It is the one runtime behind the public adaptiveba calls and
// the pipelined replicated log: each instance lives in its own session,
// inbound traffic is demuxed to per-session protocol machines by session
// ID (proto.Mux), and the per-engine report aggregates per-session
// word/message/round metrics.
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
//
// # Session groups
//
// Sessions share nothing but the deployment: the process set, the suite
// and the failure pattern. When that pattern is a crash (silent and
// stateless) or nothing, and no OnSend observes the run as a whole, Run
// deals the sessions to one group per CPU (GOMAXPROCS, at most one per
// session), session k to group k mod G, and simulates each group on its
// own goroutine over the same stride schedule with a fresh adversary of
// the same crash set. Every session keeps its index, name, signing tag
// and start tick, so its result is the one a single simulation gives;
// the report merges the groups' (sums of words, messages and late
// frames, the latest group's tick count). Any other run, and any run at
// GOMAXPROCS 1, is one group: one simulation.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

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
	// adversary whose horizon targets a session retirement edge). It is
	// called once per session group, and each call must return a new
	// adversary: groups run at once. Any adversary but a crash makes the
	// run one group.
	Adversary func(maxTicks types.Tick) sim.Adversary
	// Inflight bounds the number of concurrently live sessions (the
	// admission window W). 0 admits as many as requested; 1 runs
	// sessions strictly serially.
	Inflight int
	// Seed is every session's protocol seed (committee samples its
	// committee from it), the run's signing domain (its root tag) and,
	// when Crypto is nil, the label the key ring is derived from.
	Seed int64
	// Crypto is the run's trusted setup, built by NewCrypto for the run's
	// N and T. Nil derives one per run, the ring from "engine-<Seed>" and
	// the dealer from "engine-dealer", so a run's every byte follows from
	// its Seed. One suite may serve any number of runs: each still signs
	// in its own Seed's domain. The suite's verification cache is shared
	// too: Report.Metrics counts the lookups made while the run's session
	// groups ran, its own only when the runs on one suite take turns, as a
	// service's flushes do.
	Crypto *proto.Crypto
	// OnSend, if set, observes every charged message of the run (see
	// sim.Config.OnSend); sim.TraceTo builds the text trace on it. It sees
	// the run as a whole, so the run is one group.
	OnSend func(now types.Tick, m sim.Message, honest bool)
	// Halt, if set, is polled at every tick that runs in each session
	// group (a tick at which no machine is due and nothing is in flight
	// is skipped: see sim's Wakes), from the group's goroutine; returning
	// true aborts the run with sim.ErrHalted (the cancellation hook for
	// context callers).
	Halt func(types.Tick) bool
}

// Errors returned by Run.
var (
	ErrConfig     = errors.New("engine: invalid configuration")
	ErrNoSessions = errors.New("engine: no sessions requested")
)

// paramsFor is Run's rule for a configured (n, t).
func paramsFor(n, t int) (types.Params, error) {
	if n < 3 {
		return types.Params{}, fmt.Errorf("%w: n=%d", ErrConfig, n)
	}
	params, err := types.ParamsFor(n, t)
	if err != nil {
		return types.Params{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return params, nil
}

// NewCrypto is the trusted setup of runs with n processes and threshold
// t (0 is the default, as in Config): the suite keys build, with compact
// certificates and a verification cache. Config.Crypto takes only a
// suite built here; bad parameters are ErrConfig, as in Run.
func NewCrypto(n, t int, keys proto.Keys) (*proto.Crypto, error) {
	params, err := paramsFor(n, t)
	if err != nil {
		return nil, err
	}
	crypto, err := proto.Setup(params, keys, threshold.ModeCompact)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return crypto, nil
}

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
	// (wire.Size). Words weigh every value as one word, so bytes
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
	params, err := paramsFor(cfg.N, cfg.T)
	if err != nil {
		return nil, err
	}
	if cfg.F < 0 || cfg.F > params.T {
		return nil, fmt.Errorf("%w: f=%d with t=%d", ErrConfig, cfg.F, params.T)
	}

	crypto := cfg.Crypto
	if crypto == nil {
		if crypto, err = NewCrypto(cfg.N, cfg.T, proto.Derived(fmt.Sprintf("engine-%d", cfg.Seed), "engine-dealer")); err != nil {
			return nil, err
		}
	} else if crypto.Params != params {
		return nil, fmt.Errorf("%w: suite built for n=%d t=%d, run has n=%d t=%d", ErrConfig, crypto.Params.N, crypto.Params.T, params.N, params.T)
	} else if _, cached := crypto.VerifyCacheStats(); crypto.Mode() != threshold.ModeCompact || !cached {
		return nil, fmt.Errorf("%w: suite not built by NewCrypto", ErrConfig)
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

	// Deal the sessions to their groups, one simulation each: session k
	// runs in group k mod G. Groups share the suite, so the run's cache
	// counters are read around all of them at once.
	adv := cfg.adversary(sched.budget)
	groups := make([]group, sessionGroups(&cfg, adv, len(reqs)))
	simulate := func(g int, adv sim.Adversary) {
		gr := &groups[g]
		gr.procs = make([]*procMachine, cfg.N)
		gr.res, gr.err = sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				p := sched.root(id)
				p.group, p.groups = g, len(groups)
				gr.procs[id] = p
				return runRoot{p}
			},
			Adversary: adv,
			MaxTicks:  sched.budget,
			OnSend:    cfg.OnSend,
			Halt:      cfg.Halt,
		})
	}
	cache0, _ := crypto.VerifyCacheStats()
	if len(groups) == 1 {
		simulate(0, adv)
	} else {
		var wg sync.WaitGroup
		for g := range groups {
			if g > 0 {
				adv = cfg.adversary(sched.budget)
			}
			wg.Add(1)
			go func(g int, adv sim.Adversary) {
				defer wg.Done()
				defer func() { groups[g].panicked = recover() }()
				simulate(g, adv)
			}(g, adv)
		}
		wg.Wait()
	}
	for g := range groups {
		if p := groups[g].panicked; p != nil {
			panic(p)
		}
	}
	for g := range groups {
		if err := groups[g].err; err != nil {
			return nil, err
		}
	}

	rep := &Report{
		N: cfg.N, T: params.T, F: cfg.F,
		Sessions:     make([]SessionResult, len(reqs)),
		Stride:       sched.stride,
		SessionTicks: sched.duration,
		Metrics:      metrics.Report{ByLayer: make(map[string]metrics.Stats)},
	}
	for g := range groups {
		res := groups[g].res
		rep.Ticks = max(rep.Ticks, res.Ticks)
		rep.TimedOut = rep.TimedOut || res.TimedOut
		rep.Metrics.Steps += res.Report.Steps
		rep.Metrics.Honest.Add(res.Report.Honest)
		rep.Metrics.Byzantine.Add(res.Report.Byzantine)
		for layer, st := range res.Report.ByLayer {
			sum := rep.Metrics.ByLayer[layer]
			sum.Add(st)
			rep.Metrics.ByLayer[layer] = sum
		}
		// Demux losses: messages for already-retired sessions are
		// discarded and counted, never silently dropped. ACS sessions
		// retire their own broadcast children at the vote boundary, so
		// their nested late counts roll up too.
		for _, p := range groups[g].procs {
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
	}
	rep.Metrics.Ticks = rep.Ticks
	if st, ok := crypto.VerifyCacheStats(); ok {
		rep.Metrics.CacheHits = st.Hits - cache0.Hits
		rep.Metrics.CacheMisses = st.Misses - cache0.Misses
	}
	perLayer := splitLayers(rep.Metrics.ByLayer)
	for k := range rep.Sessions {
		s := &rep.Sessions[k]
		gr := &groups[k%len(groups)]
		s.Index, s.Name, s.Kind = k, "s"+strconv.Itoa(k), reqs[k].kind()
		s.Start = sched.starts[k]
		s.Decisions = make(map[types.ProcessID]types.Value)
		s.AllDecided = true
		for _, id := range gr.res.Honest {
			m := gr.procs[id].children[k]
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
		s.Decision, s.Agreement = sim.Agreement(s.Decisions, gr.res.Honest)
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

// adversary builds a fresh adversary for a run of the given tick budget:
// Adversary's when set, else a crash of the F-process crash set, nil
// when neither corrupts anyone.
func (cfg *Config) adversary(budget types.Tick) sim.Adversary {
	if cfg.Adversary != nil {
		return cfg.Adversary(budget)
	}
	if cfg.F > 0 {
		return adversary.NewCrash(adversary.CrashSet(cfg.F, false)...)
	}
	return nil
}

// sessionGroups is how many simulations a run of the given sessions is
// dealt to. A run that nothing observes as a whole — no OnSend, and an
// adversary (adv, as cfg builds it) that is nil or a crash — gets one per
// CPU, at most one per session: a crash adversary is silent and
// stateless, so its sessions share only the crash set. Any other run is
// one simulation.
func sessionGroups(cfg *Config, adv sim.Adversary, sessions int) int {
	if _, crash := adv.(*adversary.Crash); cfg.OnSend != nil || (adv != nil && !crash) {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), sessions)
}

// group is one simulation of a run, hosting the sessions k ≡ g (mod G)
// of group g of G on every process.
type group struct {
	procs    []*procMachine // every process's root, nil for the crashed
	res      *sim.Result
	err      error
	panicked any // a machine's panic, re-raised on Run's goroutine
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

	// group and groups deal the sessions among a run's simulations: with
	// groups > 1 this root hosts session k only if k mod groups = group
	// and passes over the others' admissions (every session otherwise).
	group, groups int
}

var (
	_ proto.Machine = (*procMachine)(nil)
	_ proto.Waker   = (*procMachine)(nil)
)

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
		if p.groups > 1 && k%p.groups != p.group {
			continue // another group's simulation hosts session k
		}
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

// Wake implements proto.Waker: the sessions' wake, the next admission
// and the next retirement.
func (p *procMachine) Wake() types.Tick {
	s := p.sched
	w := p.mux.Wake()
	if p.next < len(s.starts) {
		w = min(w, s.starts[p.next])
	}
	if p.retired < p.next {
		w = min(w, s.starts[p.retired]+s.duration)
	}
	return w
}

// Output canonically encodes every session's (decided, value) pair, so
// a runtime that sees only the root (a transport node) can compare whole
// runs at once. The encoding is sized first and written into one
// exact-size buffer.
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

// runRoot is a root machine as Run hands it to the simulator. Run reads
// every session's output from the children, so the whole-run encoding
// sim.Run asks of each root at the end would be built for nobody: a
// runRoot reports none.
type runRoot struct{ *procMachine }

func (runRoot) Output() (types.Value, bool) { return nil, false }
