package engine

import (
	"fmt"
	"testing"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// TestSchedulerByName pins the CLI name mapping.
func TestSchedulerByName(t *testing.T) {
	for name, want := range map[string]Scheduler{"": Static, "static": Static, "eager": Eager} {
		got, err := SchedulerByName(name)
		if err != nil || got != want {
			t.Errorf("SchedulerByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := SchedulerByName("nope"); err == nil {
		t.Error("unknown scheduler name accepted")
	}
}

// TestEagerMatchesStatic is the A/B determinism contract behind the
// eager policy: across the fault grid and window sizes, per-session
// decisions, word counts, and message counts (the engine fingerprint)
// are byte-identical to the static stride schedule, no frame goes
// late — and at f=0 the decision-driven schedule finishes the run in
// strictly fewer ticks.
func TestEagerMatchesStatic(t *testing.T) {
	const n, sessions = 5, 16
	for _, f := range []struct {
		f      int
		leader bool
	}{{0, false}, {1, false}, {2, true}} {
		t.Run(fmt.Sprintf("f=%d,leader=%t", f.f, f.leader), func(t *testing.T) {
			reqs := mixedRequests(n, sessions)
			static, err := Run(Config{N: n, F: f.f, LeaderFault: f.leader, Inflight: 4, Seed: 7}, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 4, 16} {
				rep, err := Run(Config{
					N: n, F: f.f, LeaderFault: f.leader, Inflight: w, Seed: 7,
					Scheduler: Eager,
				}, reqs)
				if err != nil {
					t.Fatalf("eager W=%d: %v", w, err)
				}
				if rep.TimedOut {
					t.Fatalf("eager W=%d: timed out at %d ticks", w, rep.Ticks)
				}
				if rep.Scheduler != "eager" {
					t.Fatalf("eager W=%d: report names scheduler %q", w, rep.Scheduler)
				}
				if rep.Metrics.EngineLate != 0 {
					t.Errorf("eager W=%d: %d late messages", w, rep.Metrics.EngineLate)
				}
				if got, want := rep.Fingerprint(), static.Fingerprint(); got != want {
					t.Errorf("eager W=%d diverges from static:\n--- static ---\n%s--- eager ---\n%s", w, want, got)
				}
				if f.f == 0 && w > 1 && rep.Ticks >= static.Ticks {
					t.Errorf("eager W=%d: %d ticks, static W=4 took %d — no early-retirement gain", w, rep.Ticks, static.Ticks)
				}
				t.Logf("W=%d: eager %d ticks (static W=4: %d)", w, rep.Ticks, static.Ticks)
			}
		})
	}
}

// TestEagerACSMatchesStatic extends the A/B contract to ACS sessions,
// where Eager additionally switches the vote boundary to early-stopping
// (acs.Config.Early): committed subsets and word counts must match the
// conservative boundary exactly, in strictly fewer ticks at f=0.
func TestEagerACSMatchesStatic(t *testing.T) {
	const n, sessions = 5, 4
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = acs.EncodeBatch([]types.Value{types.Value(fmt.Sprintf("SET a%d 1", i))})
	}
	reqs := make([]Request, sessions)
	for k := range reqs {
		reqs[k] = Request{Kind: KindACS, Inputs: inputs}
	}
	for _, f := range []int{0, 2} {
		t.Run(fmt.Sprintf("f=%d", f), func(t *testing.T) {
			static, err := Run(Config{N: n, F: f, Inflight: 2, Seed: 7}, reqs)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := Run(Config{N: n, F: f, Inflight: 2, Seed: 7, Scheduler: Eager}, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if eager.TimedOut {
				t.Fatalf("eager timed out at %d ticks", eager.Ticks)
			}
			if eager.Metrics.EngineLate != 0 {
				t.Errorf("eager: %d late messages", eager.Metrics.EngineLate)
			}
			if got, want := eager.Fingerprint(), static.Fingerprint(); got != want {
				t.Errorf("eager ACS diverges from static:\n--- static ---\n%s--- eager ---\n%s", want, got)
			}
			if eager.Ticks >= static.Ticks {
				t.Errorf("eager: %d ticks, static took %d — early vote boundary bought nothing", eager.Ticks, static.Ticks)
			}
			t.Logf("f=%d: eager %d ticks vs static %d", f, eager.Ticks, static.Ticks)
		})
	}
}

// TestEagerLateAccounting drives the replay adversary against eagerly
// retired sessions: stale traffic re-sent after decision-driven
// retirement must surface in EngineLate — including the ACS machines'
// nested broadcast children — never be silently dropped, and the run
// must still converge deterministically across tick-worker counts.
func TestEagerLateAccounting(t *testing.T) {
	const n = 5
	queues := make([][]types.Value, n)
	for i := range queues {
		queues[i] = append(queues[i], types.Value(fmt.Sprintf("SET k%d p%d", i, i)))
	}
	var serialFP string
	for _, workers := range []int{1, 4} {
		rep, err := RunACSLog(Config{
			N:           n,
			TickWorkers: workers,
			Scheduler:   Eager,
			Adversary: func(maxTicks types.Tick) sim.Adversary {
				return adversary.NewReplay(7, maxTicks, 1)
			},
		}, queues, 1, 1)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Converged {
			t.Fatalf("workers=%d: round did not converge", workers)
		}
		if late := rep.Engine.Metrics.EngineLate; late == 0 {
			t.Errorf("workers=%d: replayed traffic did not surface in EngineLate", workers)
		}
		fp := rep.Engine.Fingerprint()
		if workers == 1 {
			serialFP = fp
		} else if fp != serialFP {
			t.Errorf("workers=%d: fingerprint differs from serial run", workers)
		}
	}
}

// recordMachine decides at a fixed tick and records every frame it was
// handed — the probe for early-frame delivery.
type recordMachine struct {
	decideAt types.Tick
	got      []proto.Incoming
	decided  bool
}

func (r *recordMachine) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing { return outs }
func (r *recordMachine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	r.got = append(r.got, inbox...)
	if now >= r.decideAt {
		r.decided = true
	}
	return outs
}
func (r *recordMachine) Output() (types.Value, bool) {
	if r.decided {
		return types.Value("d"), true
	}
	return nil, false
}
func (r *recordMachine) Done() bool { return r.decided }

// eagerProc builds a bare eager procMachine for scheduler unit tests.
func eagerProc(names []string, build func(k int, id types.ProcessID) proto.Machine, window int) *procMachine {
	p := &procMachine{
		build:    build,
		names:    names,
		duration: 1 << 30,
		sched:    Eager,
		window:   window,
		mux:      proto.NewMux(),
		children: make([]proto.Machine, len(names)),
		admitted: make([]types.Tick, len(names)),
		live:     make([]int, 0, window),
		nameIdx:  make(map[string]int, len(names)),
	}
	for i, nm := range names {
		p.nameIdx[nm] = i
	}
	return p
}

// TestEagerEarlyFrameBuffer pins the not-yet-admitted path: a frame for
// a queued session is buffered (not shed, not counted unrouted) and
// replayed into the session's machine on its first tick after eager
// admission — while frames for an eagerly retired session count late.
func TestEagerEarlyFrameBuffer(t *testing.T) {
	machines := []*recordMachine{{decideAt: 2}, {decideAt: 1 << 30}}
	p := eagerProc([]string{"s0", "s1"},
		func(k int, _ types.ProcessID) proto.Machine { return machines[k] }, 1)
	p.Begin(0, nil)
	if p.next != 1 || len(p.live) != 1 {
		t.Fatalf("window-1 Begin admitted %d sessions, %d live", p.next, len(p.live))
	}
	// Tick 1: a frame for queued s1 arrives early — buffered.
	p.Tick(1, []proto.Incoming{{From: 3, Session: "s1/x", Payload: nil}}, nil)
	if got := p.mux.Unrouted(); got != 0 {
		t.Fatalf("early frame counted unrouted (%d)", got)
	}
	if len(p.earlyBuf) != 1 {
		t.Fatalf("early buffer holds %d frames, want 1", len(p.earlyBuf))
	}
	// Tick 2: s0 decides. Tick 3: s0 retires, s1 admitted, buffer drains.
	p.Tick(2, nil, nil)
	p.Tick(3, nil, nil)
	if p.next != 2 || len(p.earlyBuf) != 0 {
		t.Fatalf("after admission: next=%d earlyBuf=%d, want 2/0", p.next, len(p.earlyBuf))
	}
	// Tick 4: s1's first step replays the buffered frame (session prefix
	// stripped); a stale frame for retired s0 counts late.
	p.Tick(4, []proto.Incoming{{From: 2, Session: "s0/y", Payload: nil}}, nil)
	if len(machines[1].got) != 1 || machines[1].got[0].Session != "x" || machines[1].got[0].From != 3 {
		t.Errorf("s1 received %v, want the replayed early frame", machines[1].got)
	}
	if got := p.mux.Late(); got != 1 {
		t.Errorf("stale frame for retired s0: late=%d, want 1", got)
	}
	if p.earlyDrops != 0 {
		t.Errorf("earlyDrops=%d, want 0", p.earlyDrops)
	}
}

// TestEagerEarlyFrameOverflow pins the drop-not-block bound on the
// early buffer: beyond earlyBufMax frames, the overflow is counted (and
// later rolled into EngineLate), never silently lost.
func TestEagerEarlyFrameOverflow(t *testing.T) {
	p := eagerProc([]string{"s0", "s1"},
		func(int, types.ProcessID) proto.Machine { return &recordMachine{decideAt: 1 << 30} }, 1)
	p.Begin(0, nil)
	early := func() []proto.Incoming { // a fresh inbox per tick: Tick consumes it
		inbox := make([]proto.Incoming, 64)
		for i := range inbox {
			inbox[i] = proto.Incoming{From: 1, Session: "s1/x"}
		}
		return inbox
	}
	for now := types.Tick(1); len(p.earlyBuf) < earlyBufMax; now++ {
		p.Tick(now, early(), nil)
	}
	p.Tick(1<<20, early(), nil)
	if p.earlyDrops != 64 {
		t.Errorf("earlyDrops=%d, want 64", p.earlyDrops)
	}
}

// TestEagerSteadyStateAllocs is the scheduler-hot-path alloc guard for
// the eager policy: with the window full and no decisions pending, a
// tick — retirement scan, early-frame classification, demux, admission
// check — allocates nothing. CI runs this next to the static guard.
func TestEagerSteadyStateAllocs(t *testing.T) {
	p := eagerProc([]string{"s0", "s1", "s2", "s3", "s4", "s5"},
		func(int, types.ProcessID) proto.Machine { return idleMachine{} }, 4)
	p.Begin(0, nil)
	var now types.Tick
	for now = 1; now < 10; now++ {
		p.Tick(now, nil, nil)
	}
	checkSteadyTickAllocs(t, "eager", p, now)
}
