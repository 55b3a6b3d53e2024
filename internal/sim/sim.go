// Package sim is a deterministic, tick-granular simulator of the paper's
// model (Section 2): a static set Π of n processes, reliable authenticated
// links, a synchronous network with delay bound δ (= one tick), and an
// adaptive adversary that corrupts up to t processes.
//
// Honest processes are proto.Machines. Corrupted processes are controlled
// by an Adversary, which observes the traffic addressed to them, sees all
// honest messages of the current tick before acting (a rushing adversary),
// and may send arbitrary messages from corrupted identities. The simulator
// enforces the reliable-link rule: the adversary cannot forge the sender
// identity of a correct process.
//
// Every honest message send is charged to the run's metrics.Recorder
// using the paper's word-cost model; self-addressed deliveries are free.
// Observers (Config.OnSend, the TraceTo message trace) see each charged
// send after the charge and cannot change it.
//
// # Concurrency model
//
// Within one tick, honest machines share no mutable state (they interact
// only through messages, which the engine delivers between ticks), so the
// engine fans their Begin/Tick calls out across one worker per CPU
// (GOMAXPROCS, at most n) on every tick heavy enough to repay the fan-out
// (stepFanOutMin) and steps them inline otherwise. Each machine's outputs
// land in a per-machine slot and are joined in ID order afterwards, so
// the observable schedule — honest traffic order, the rushing adversary's
// view, metrics, traces — is byte-identical at every GOMAXPROCS,
// including 1, which reduces to the strictly serial engine. All
// engine-side observation (adversary calls, recording, OnSend) happens
// post-join on the engine goroutine.
//
// Runs are independent of each other: the multi-session engine runs one
// simulation per session group, several at once, and they share only
// the crypto suite, whose verification cache is safe for concurrent use,
// and a pool of per-run buffers (scratch) that each run takes whole and
// returns cleared.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"weak"

	"adaptiveba/internal/crypto/verifycache"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// Message is an addressed payload traveling through the simulated network.
type Message struct {
	From    types.ProcessID
	To      types.ProcessID
	Session string
	Payload proto.Payload
}

// Corruption schedules the takeover of one process at a given tick.
// At = 0 corrupts the process before the run starts.
type Corruption struct {
	ID types.ProcessID
	At types.Tick
}

// Env is the adversary's view of the trusted setup.
type Env struct {
	Params types.Params
	Crypto *proto.Crypto
}

// Adversary drives the corrupted processes. Implementations live in
// internal/adversary; a nil Adversary in the Config means a failure-free
// run (f = 0).
type Adversary interface {
	// Init is called once before the run with the setup artifacts.
	Init(env Env)
	// Corruptions returns the corruption schedule. The engine validates it
	// against Params (at most t distinct processes).
	Corruptions() []Corruption
	// Observe delivers the messages addressed to corrupted process `to`
	// at tick now (the adversary's inbox). The slice is reused by the
	// engine after the call returns; implementations that keep messages
	// must copy the elements (not retain the slice).
	Observe(now types.Tick, to types.ProcessID, inbox []proto.Incoming)
	// Act runs after all honest machines produced their tick-now sends
	// (rushing adversary: honestTraffic is this tick's honest output).
	// The returned messages must originate from corrupted identities and
	// are delivered at now+1, like all other traffic. honestTraffic is
	// reused by the engine after the call returns; copy elements to keep
	// them.
	Act(now types.Tick, honestTraffic []Message) []Message
	// Quiescent reports that the adversary has no future actions pending;
	// the engine only halts early when honest machines are done, no
	// messages are in flight, and the adversary is quiescent.
	Quiescent(now types.Tick) bool
}

// Config describes one run.
type Config struct {
	Params  types.Params
	Crypto  *proto.Crypto
	Factory func(id types.ProcessID) proto.Machine

	Adversary Adversary  // nil for failure-free runs
	MaxTicks  types.Tick // hard stop; DefaultMaxTicks if 0
	// SizeOf, if set, reports each payload's encoded byte size for the
	// recorder's byte counters (engine and harness runs pass
	// protocols.SizeOf).
	// The engine memoizes it per boxed payload instance, so an n-way
	// broadcast of one payload is measured once, not n times.
	SizeOf func(proto.Payload) int
	// ShuffleSeed, if non-zero, deterministically permutes every inbox
	// before delivery: within one tick the adversary controls arrival
	// order, so correct protocols must be insensitive to it. Tests sweep
	// seeds to catch accidental order dependence.
	ShuffleSeed int64
	// OnSend, if set, observes every charged message (honest and
	// Byzantine; self-deliveries are not network traffic and are not
	// shown) with its sending tick, after the tick's traffic is charged.
	// TraceTo builds the text trace on it; tools and monitors use it for
	// structured tracing.
	OnSend func(now types.Tick, m Message, honest bool)
	// Halt, if set, is polled at the start of every tick; returning true
	// aborts the run with ErrHalted before any machine is stepped at that
	// tick. This is the cancellation hook: the run stays fully
	// synchronous (no goroutines outlive Run), so a caller-side
	// context.Done check here makes cancellation prompt and leak-free.
	Halt func(now types.Tick) bool
}

// DefaultMaxTicks bounds runs whose configuration forgot a limit.
const DefaultMaxTicks types.Tick = 100_000

// Result is the outcome of a run.
type Result struct {
	// Decisions maps every process that stayed honest for the whole run to
	// its output (present only if it decided).
	Decisions map[types.ProcessID]types.Value
	// Honest lists the processes that were never corrupted, ascending.
	Honest []types.ProcessID
	// Corrupted lists the corrupted processes, ascending.
	Corrupted []types.ProcessID
	// Ticks is the tick at which the run stopped.
	Ticks types.Tick
	// TimedOut reports the run hit MaxTicks before quiescing.
	TimedOut bool
	// Report is the metrics snapshot.
	Report metrics.Report
}

// F returns the number of actually corrupted processes in the run.
func (r *Result) F() int { return len(r.Corrupted) }

// AllDecided reports whether every process that remained honest decided.
func (r *Result) AllDecided() bool {
	for _, id := range r.Honest {
		if _, ok := r.Decisions[id]; !ok {
			return false
		}
	}
	return true
}

// Agreement applies the package's Agreement rule to the run's decisions.
func (r *Result) Agreement() (types.Value, bool) { return Agreement(r.Decisions, r.Honest) }

// Agreement reports whether the decisions of the honest processes are
// identical, returning the common value; processes without a decision are
// skipped. Vacuously true (with ⊥) when nothing was decided.
func Agreement(decisions map[types.ProcessID]types.Value, honest []types.ProcessID) (types.Value, bool) {
	var v types.Value
	first := true
	for _, id := range honest {
		d, ok := decisions[id]
		if !ok {
			continue
		}
		if first {
			v, first = d, false
			continue
		}
		if !d.Equal(v) {
			return nil, false
		}
	}
	return v, true
}

// Errors reported by Run.
var (
	ErrConfig     = errors.New("sim: invalid configuration")
	ErrForgery    = errors.New("sim: adversary sent from a non-corrupted identity")
	ErrCorruption = errors.New("sim: invalid corruption schedule")
	ErrHalted     = errors.New("sim: run halted")
)

// Run executes the configured run to quiescence or MaxTicks.
func Run(cfg Config) (*Result, error) {
	if !cfg.Params.Valid() {
		return nil, fmt.Errorf("%w: bad params %+v", ErrConfig, cfg.Params)
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("%w: nil factory", ErrConfig)
	}
	if cfg.Crypto == nil {
		return nil, fmt.Errorf("%w: nil crypto", ErrConfig)
	}
	maxTicks := cfg.MaxTicks
	if maxTicks <= 0 {
		maxTicks = DefaultMaxTicks
	}
	n := cfg.Params.N
	corruptAt := make(map[types.ProcessID]types.Tick)
	var schedule []Corruption
	if cfg.Adversary != nil {
		cfg.Adversary.Init(Env{Params: cfg.Params, Crypto: cfg.Crypto})
		for _, c := range cfg.Adversary.Corruptions() {
			if err := cfg.Params.CheckProcess(c.ID); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruption, err)
			}
			if at, dup := corruptAt[c.ID]; dup {
				return nil, fmt.Errorf("%w: %v corrupted twice (ticks %d, %d)", ErrCorruption, c.ID, at, c.At)
			}
			if c.At < 0 {
				return nil, fmt.Errorf("%w: negative tick for %v", ErrCorruption, c.ID)
			}
			corruptAt[c.ID] = c.At
			schedule = append(schedule, c)
		}
		if len(corruptAt) > cfg.Params.T {
			return nil, fmt.Errorf("%w: %d corruptions exceed t=%d", ErrCorruption, len(corruptAt), cfg.Params.T)
		}
		// The tick loop consumes the schedule as a sorted stream with a
		// cursor, so applying corruptions is O(1) per tick instead of a
		// map walk — the walk was measurable at f ≈ t ≈ n/2, n = 4096.
		sort.Slice(schedule, func(a, b int) bool {
			if schedule[a].At != schedule[b].At {
				return schedule[a].At < schedule[b].At
			}
			return schedule[a].ID < schedule[b].ID
		})
	}

	workers := min(runtime.GOMAXPROCS(0), n)

	e := &engine{
		cfg:       cfg,
		cache0:    cacheStats(cfg.Crypto),
		rec:       metrics.NewRecorder(),
		machines:  make([]proto.Machine, n),
		corrupted: make([]bool, n),
		schedule:  schedule,
		workers:   workers,
		scratch:   takeScratch(n),
	}
	defer e.scratch.release()
	if cfg.ShuffleSeed != 0 {
		e.shufflers = make([]*shuffler, workers)
		for w := range e.shufflers {
			e.shufflers[w] = newShuffler()
		}
	}
	for i := 0; i < n; i++ {
		id := types.ProcessID(i)
		if at, ok := corruptAt[id]; ok && at == 0 {
			e.corrupted[i] = true
			continue
		}
		e.machines[i] = cfg.Factory(id)
	}
	return e.run(maxTicks)
}

// cacheStats is c's verification-cache counters, zero without a cache.
func cacheStats(c *proto.Crypto) verifycache.Stats {
	st, _ := c.VerifyCacheStats()
	return st
}

type engine struct {
	cfg Config
	// cache0 is the suite's verification-cache counters when the run
	// began: a suite may serve many runs, and a run reports its own share
	// when those runs take turns. Concurrent runs count each other's, so
	// an engine run whose session groups share a suite reads the counters
	// around all of its groups instead.
	cache0    verifycache.Stats
	rec       *metrics.Recorder
	machines  []proto.Machine
	corrupted []bool
	workers   int

	// schedule is the corruption schedule sorted by (At, ID); nextCorrupt
	// is the cursor of the first entry not yet applied. Together they make
	// applyCorruptions O(1) amortized instead of a per-tick map walk.
	schedule    []Corruption
	nextCorrupt int

	*scratch
	shufflers []*shuffler // one reusable shuffle source per worker; nil unless ShuffleSeed != 0
}

// scratch is a run's delivery and send buffers. A run takes one from
// spares and gives it back cleared, so back-to-back runs (a service's
// flushes) and concurrent ones (an engine run's session groups) reuse
// buffers already grown instead of each regrowing its own.
type scratch struct {
	// pending holds the in-flight traffic due at the current tick. Every
	// message is delivered exactly one tick after it is sent, so a single
	// buffer suffices: it is drained into the inbox arena at tick start
	// and its backing array is immediately recycled for the tick's new
	// sends.
	pending []Message

	// Dense delivery state. Instead of n per-recipient append buckets
	// (n grow-able slices, n headers touched every tick), the tick's
	// in-flight messages are scattered into one flat arena grouped by
	// recipient: machine i's inbox is arena[inboxOff[i]:inboxOff[i+1]].
	// The scatter is a counting sort on the recipient — stable, so each
	// inbox preserves exactly the per-recipient arrival order the
	// append-bucket engine produced — and it shards across workers when
	// the tick is heavy (see deliver).
	arena    []proto.Incoming
	inboxOff []int32 // n+1 prefix offsets into arena
	counts   []int32 // per-recipient counts, doubling as scatter cursors
	// chunkCounts[w][r] is worker w's count of chunk-local messages for
	// recipient r during sharded delivery, then w's scatter cursor for r
	// after the merge. Grown on the first sharded tick.
	chunkCounts [][]int32

	// outs[i] is the one send buffer machine i's whole session tree
	// appends to: handed over empty every tick, joined in ID order, kept
	// for the next.
	outs [][]proto.Outgoing

	// The longest prefix of pending, arena and any outs[i] the run wrote:
	// all that release must clear to drop the run's payloads.
	pendingHW, arenaHW, outsHW int
}

// spares is where finished runs leave their scratch for the next run,
// on whichever P each lands. (A sync.Pool finds a Put only on the Put's
// own P or in another P's shared queue, never in another P's private
// slot, so a session group that landed on a P of its own used to regrow
// every buffer.) The list is reached through a weak pointer and kept
// alive only by keepSpares, a sync.Pool used for its lifetime alone: the
// first releases after each collection put the list back there, so
// spares last through the collection after their run as a pooled object
// does, and two collections with no run between free them.
var spares struct {
	mu   sync.Mutex
	list weak.Pointer[spareList]
	// epoch points weakly at an object nothing else holds: it reads nil
	// once a collection has run since it was made. kept counts the times
	// the list was put in keepSpares since then.
	epoch weak.Pointer[epochMark]
	kept  int
}

type spareList struct{ free []*scratch }

type epochMark struct{ _ *byte } // pointerful: a tiny object could share a block that outlives it

var keepSpares sync.Pool

// keepCopies is how many times the list is put in keepSpares per
// collection. One would do, but under the race detector a sync.Pool
// drops a quarter of its Puts at random; four leave the list unkept once
// in 256 collections there.
const keepCopies = 4

// takeScratch returns a spare scratch fitted to n processes, or a new
// one. Only its buffers' capacity carries over: every user overwrites
// before it reads.
func takeScratch(n int) *scratch {
	var s *scratch
	spares.mu.Lock()
	if l := spares.list.Value(); l != nil && len(l.free) > 0 {
		last := len(l.free) - 1
		s, l.free[last] = l.free[last], nil
		l.free = l.free[:last]
	}
	spares.mu.Unlock()
	if s == nil {
		s = new(scratch)
	}
	s.inboxOff = slices.Grow(s.inboxOff[:0], n+1)[:n+1]
	s.counts = slices.Grow(s.counts[:0], n)[:n]
	s.outs = slices.Grow(s.outs[:0], n)[:n]
	return s
}

// release clears the payloads the run left in s and hands it back to
// spares.
func (s *scratch) release() {
	clear(s.pending[:s.pendingHW])
	clear(s.arena[:s.arenaHW])
	for i, o := range s.outs {
		s.outs[i] = o[:0]
		clear(o[:min(s.outsHW, cap(o))])
	}
	s.pending, s.arena = s.pending[:0], s.arena[:0]
	s.pendingHW, s.arenaHW, s.outsHW = 0, 0, 0
	spares.mu.Lock()
	l := spares.list.Value()
	if l == nil || spares.epoch.Value() == nil {
		if l == nil {
			l = new(spareList)
			spares.list = weak.Make(l)
		}
		spares.epoch, spares.kept = weak.Make(new(epochMark)), 0
	}
	if spares.kept < keepCopies {
		keepSpares.Put(l)
		spares.kept++
	}
	l.free = append(l.free, s)
	spares.mu.Unlock()
}

// inbox returns machine i's delivery view for the current tick. The
// capacity is pinned to the slice length so a misbehaving machine cannot
// append into its neighbor's region of the shared arena.
func (e *engine) inbox(i int) []proto.Incoming {
	lo, hi := e.inboxOff[i], e.inboxOff[i+1]
	return e.arena[lo:hi:hi]
}

func (e *engine) run(maxTicks types.Tick) (*Result, error) {
	n := e.cfg.Params.N
	var now types.Tick
	timedOut := true

	for now = 0; now <= maxTicks; now++ {
		if e.cfg.Halt != nil && e.cfg.Halt(now) {
			return nil, fmt.Errorf("%w at tick %d", ErrHalted, now)
		}
		e.applyCorruptions(now)

		// Deliver: scatter the in-flight traffic into the inbox arena.
		e.deliver()

		// Step: shuffle inboxes and run the honest machines, fanned out
		// across the worker pool; outputs land per-machine in e.outs.
		e.step(now)

		// Join: concatenate honest outputs in ID order (the canonical
		// honest traffic order) into the recycled pending buffer, and
		// validate recipients in the same order the serial engine did.
		traffic := e.pending[:0]
		for i := 0; i < n; i++ {
			if e.corrupted[i] {
				continue
			}
			id := types.ProcessID(i)
			e.outsHW = max(e.outsHW, len(e.outs[i]))
			for _, o := range e.outs[i] {
				if err := e.cfg.Params.CheckProcess(o.To); err != nil {
					return nil, fmt.Errorf("sim: %v sent to invalid recipient: %w", id, err)
				}
				traffic = append(traffic, Message{
					From: id, To: o.To, Session: o.Session, Payload: o.Payload,
				})
			}
		}
		honestTraffic := traffic

		// Adversary observes corrupted inboxes, then acts with full
		// knowledge of this tick's honest traffic (rushing).
		var advTraffic []Message
		if e.cfg.Adversary != nil {
			for i := 0; i < n; i++ {
				if e.corrupted[i] {
					if box := e.inbox(i); len(box) > 0 {
						e.cfg.Adversary.Observe(now, types.ProcessID(i), box)
					}
				}
			}
			advTraffic = e.cfg.Adversary.Act(now, honestTraffic)
			for _, m := range advTraffic {
				if err := e.cfg.Params.CheckProcess(m.To); err != nil {
					return nil, fmt.Errorf("sim: adversary recipient: %w", err)
				}
				if err := e.cfg.Params.CheckProcess(m.From); err != nil || !e.corrupted[m.From] {
					return nil, fmt.Errorf("%w: from %v at tick %d", ErrForgery, m.From, now)
				}
			}
		}

		e.record(honestTraffic, true, now)
		e.record(advTraffic, false, now)
		e.pending = append(traffic, advTraffic...)
		e.pendingHW = max(e.pendingHW, len(e.pending))

		if e.quiesced(now) {
			timedOut = false
			break
		}
	}

	res := &Result{
		Decisions: make(map[types.ProcessID]types.Value),
		Ticks:     now,
		TimedOut:  timedOut,
	}
	// Honest and Corrupted are appended in ascending ID order by
	// construction of this loop; no sort is needed.
	for i := 0; i < n; i++ {
		id := types.ProcessID(i)
		if e.corrupted[i] {
			res.Corrupted = append(res.Corrupted, id)
			continue
		}
		res.Honest = append(res.Honest, id)
		if v, ok := e.machines[i].Output(); ok {
			res.Decisions[id] = v
		}
	}
	if st, ok := e.cfg.Crypto.VerifyCacheStats(); ok {
		e.rec.SetCacheStats(st.Hits-e.cache0.Hits, st.Misses-e.cache0.Misses, st.InflightWaits-e.cache0.InflightWaits)
	}
	e.rec.SetTicks(now)
	res.Report = e.rec.Snapshot()
	return res, nil
}

// stepFanOutMin is the delivered-message count below which a tick steps
// its machines inline on the engine goroutine: the sibling of
// parallelDeliveryMin, keyed on the same observable, len(e.pending).
// Spawning and joining the workers costs a fixed 5–100 µs of scheduler
// and futex traffic per tick, and most ticks of any run are idle or
// nearly so (886 of the 892 ticks of a failure-free BB at n=161 deliver
// nothing) — there that overhead is the whole tick. Both paths fill
// e.outs per machine and join in ID order, so the gate is invisible to
// the observable schedule. A message count is a coarse proxy for step
// work: a delivered Ed25519 message costs ~100× an HMAC one, so no one
// value is the crossover of both. Below 128 messages inline won every
// HMAC tick measured (1.05–2.2×); the Ed25519 ticks the fan-out wins
// (every process signing, 0.53–0.68 at n ≥ 81) deliver n or 2n messages,
// and 256 already gave most of that back at n=161. DESIGN.md, "Engine
// concurrency model", has the method, the tables, the host and what the
// gate forgoes.
const stepFanOutMin = 128

// step shuffles every inbox and runs each honest machine's Begin/Tick,
// filling e.outs. With one worker, or on a tick lighter than
// stepFanOutMin, it runs serially in the engine's goroutine; otherwise
// the machine indices are work-stolen by e.workers goroutines. Machine
// panics are re-raised on the engine goroutine.
func (e *engine) step(now types.Tick) {
	n := e.cfg.Params.N
	if e.workers == 1 || len(e.pending) < stepFanOutMin {
		for i := 0; i < n; i++ {
			e.stepOne(now, i, 0)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				e.stepOne(now, i, w)
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// stepOne, run by worker w, shuffles machine i's inbox and, if i is
// honest, steps it. The shuffle covers corrupted inboxes too: the
// adversary observes them in permuted order, exactly as the serial engine
// delivered them.
func (e *engine) stepOne(now types.Tick, i, w int) {
	box := e.inbox(i)
	if e.cfg.ShuffleSeed != 0 {
		e.shufflers[w].shuffle(e.cfg.ShuffleSeed, now, types.ProcessID(i), box)
	}
	if e.corrupted[i] {
		return
	}
	if now == 0 {
		e.outs[i] = e.machines[i].Begin(0, e.outs[i][:0])
	} else {
		e.outs[i] = e.machines[i].Tick(now, box, e.outs[i][:0])
	}
}

// shuffler deterministically permutes inboxes from (seed, tick, id). The
// source is allocated once and re-seeded per inbox, which yields the
// exact permutation rand.New(rand.NewSource(k)) would — without the
// per-inbox generator allocation the pre-parallel engine paid.
type shuffler struct {
	src rand.Source
	rng *rand.Rand
}

func newShuffler() *shuffler {
	src := rand.NewSource(0)
	return &shuffler{src: src, rng: rand.New(src)}
}

func (s *shuffler) shuffle(seed int64, now types.Tick, id types.ProcessID, inbox []proto.Incoming) {
	if len(inbox) < 2 {
		return
	}
	s.src.Seed(seed ^ int64(now)*2654435761 ^ int64(id)<<17)
	s.rng.Shuffle(len(inbox), func(a, b int) {
		inbox[a], inbox[b] = inbox[b], inbox[a]
	})
}

// applyCorruptions hands processes scheduled for tick now to the
// adversary. The schedule is sorted by tick and consumed with a cursor,
// so this is O(newly corrupted) per tick.
func (e *engine) applyCorruptions(now types.Tick) {
	for e.nextCorrupt < len(e.schedule) && e.schedule[e.nextCorrupt].At <= now {
		id := e.schedule[e.nextCorrupt].ID
		e.corrupted[id] = true
		e.machines[id] = nil
		e.nextCorrupt++
	}
}

// parallelDeliveryMin is the in-flight message count below which sharded
// delivery is not worth the O(workers·n) merge; light ticks take the
// serial counting sort. Both paths produce an identical arena layout, so
// the crossover is invisible to the observable schedule.
const parallelDeliveryMin = 4096

// deliver scatters e.pending into the inbox arena, grouped by recipient
// with per-recipient arrival order preserved (a stable counting sort on
// To). Heavy ticks shard the sort: the pending buffer is cut into one
// contiguous chunk per worker (chunk order = position order), each worker
// counts its chunk's per-recipient messages, a serial merge turns the
// (recipient-major, chunk-minor) counts into scatter cursors, and the
// workers then place their chunks independently. Because every message's
// final slot is (recipient base) + (messages for that recipient in
// earlier chunks) + (chunk-local rank), the sharded layout is byte-for-
// byte the serial one at any worker count.
func (e *engine) deliver() {
	n := len(e.counts)
	p := len(e.pending)
	if p == 0 {
		for i := range e.inboxOff {
			e.inboxOff[i] = 0
		}
		return
	}
	if cap(e.arena) < p {
		e.arena = make([]proto.Incoming, p)
	}
	e.arena = e.arena[:p]
	e.arenaHW = max(e.arenaHW, p)

	w := e.workers
	if w > 1 && p >= parallelDeliveryMin {
		e.deliverSharded(w)
		return
	}

	for i := range e.counts {
		e.counts[i] = 0
	}
	for i := range e.pending {
		e.counts[e.pending[i].To]++
	}
	var off int32
	for i := 0; i < n; i++ {
		e.inboxOff[i] = off
		c := e.counts[i]
		e.counts[i] = off // becomes the scatter cursor
		off += c
	}
	e.inboxOff[n] = off
	for i := range e.pending {
		m := &e.pending[i]
		pos := e.counts[m.To]
		e.counts[m.To] = pos + 1
		e.arena[pos] = proto.Incoming{From: m.From, Session: m.Session, Payload: m.Payload}
	}
}

// deliverSharded is deliver's heavy-tick path: count and scatter fan out
// across w workers over contiguous pending chunks.
func (e *engine) deliverSharded(w int) {
	n := len(e.counts)
	p := len(e.pending)
	for len(e.chunkCounts) < w {
		e.chunkCounts = append(e.chunkCounts, nil)
	}
	for k := 0; k < w; k++ {
		e.chunkCounts[k] = slices.Grow(e.chunkCounts[k][:0], n)[:n]
	}
	chunk := func(k int) (int, int) {
		return k * p / w, (k + 1) * p / w
	}

	fanOut(w, func(k int) {
		counts := e.chunkCounts[k]
		for i := range counts {
			counts[i] = 0
		}
		lo, hi := chunk(k)
		for i := lo; i < hi; i++ {
			counts[e.pending[i].To]++
		}
	})

	// Merge: recipient-major, chunk-minor prefix sum. chunkCounts[k][r]
	// becomes worker k's scatter cursor for recipient r.
	var off int32
	for r := 0; r < n; r++ {
		e.inboxOff[r] = off
		for k := 0; k < w; k++ {
			c := e.chunkCounts[k][r]
			e.chunkCounts[k][r] = off
			off += c
		}
	}
	e.inboxOff[n] = off

	fanOut(w, func(k int) {
		cursors := e.chunkCounts[k]
		lo, hi := chunk(k)
		for i := lo; i < hi; i++ {
			m := &e.pending[i]
			pos := cursors[m.To]
			cursors[m.To] = pos + 1
			e.arena[pos] = proto.Incoming{From: m.From, Session: m.Session, Payload: m.Payload}
		}
	})
}

// fanOut runs fn(0..w-1) on w goroutines and waits; panics are re-raised
// on the caller's goroutine.
func fanOut(w int, fn func(k int)) {
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			fn(k)
		}(k)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// record charges msgs to the recorder, then shows each charged message to
// OnSend. Self-addressed messages are local deliveries, not network
// traffic, and are skipped by both. Runs of messages with one payload
// instance, sender, and session — the shape proto.AppendBroadcast
// produces — are charged with a single RecordSendN call, so the
// per-message cost (words, signatures, and in particular the SizeOf
// encoding walk) is computed once per broadcast, not once per recipient.
func (e *engine) record(msgs []Message, honest bool, now types.Tick) {
	i := 0
	for i < len(msgs) {
		m := &msgs[i]
		if m.From == m.To {
			i++
			continue
		}
		words, sigs, size := 1, 0, 0
		j := i + 1
		if m.Payload != nil {
			words = m.Payload.Words()
			if sc, ok := m.Payload.(proto.SigCarrier); ok {
				sigs = sc.SigCount()
			}
			if e.cfg.SizeOf != nil {
				size = e.cfg.SizeOf(m.Payload)
			}
			k := proto.KeyOf(m.Payload)
			for j < len(msgs) {
				nm := &msgs[j]
				if nm.From != m.From || nm.From == nm.To || nm.Session != m.Session ||
					nm.Payload == nil || proto.KeyOf(nm.Payload) != k {
					break
				}
				j++
			}
		}
		e.rec.RecordSendN(metrics.SendEvent{
			Words:  words,
			Sigs:   sigs,
			Bytes:  size,
			Layer:  m.Session, // the recorder files "" under "(root)"
			Honest: honest,
		}, j-i)
		i = j
	}
	if e.cfg.OnSend == nil {
		return
	}
	for _, m := range msgs {
		if m.From != m.To {
			e.cfg.OnSend(now, m, honest)
		}
	}
}

// TraceTo returns an OnSend hook that writes one line per message to w:
// the sending tick, sender, recipient, session, payload type and word
// cost, as in "t=2 p0->p1 [s0/bb] bb/reply (1w)".
func TraceTo(w io.Writer) func(now types.Tick, m Message, honest bool) {
	return func(now types.Tick, m Message, _ bool) {
		typ, words := "?", 1
		if m.Payload != nil {
			typ, words = m.Payload.Type(), m.Payload.Words()
		}
		fmt.Fprintf(w, "t=%d %v->%v [%s] %s (%dw)\n", now, m.From, m.To, m.Session, typ, words)
	}
}

// quiesced reports whether the run can stop after tick now.
func (e *engine) quiesced(now types.Tick) bool {
	if len(e.pending) > 0 {
		return false
	}
	if e.nextCorrupt < len(e.schedule) {
		return false // a future corruption is pending
	}
	for i := range e.machines {
		if e.corrupted[i] {
			continue
		}
		if !e.machines[i].Done() {
			return false
		}
	}
	if e.cfg.Adversary != nil && !e.cfg.Adversary.Quiescent(now) {
		return false
	}
	return true
}
