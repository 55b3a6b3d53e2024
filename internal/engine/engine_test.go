package engine

import (
	"errors"
	"fmt"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// mixedRequests builds a workload that exercises every session kind,
// ⊥-deciding slots (senders that get crashed), and wba fallback
// (distinct inputs force disagreement handling).
func mixedRequests(n, count int) []Request {
	reqs := make([]Request, count)
	for k := range reqs {
		switch k % 4 {
		case 0:
			reqs[k] = Request{Kind: protocols.BB, Sender: types.ProcessID(k % n), Value: types.Value(fmt.Sprintf("cmd%d", k))}
		case 1:
			reqs[k] = Request{Kind: protocols.WBA, Value: types.Value(fmt.Sprintf("w%d", k))}
		case 2:
			inputs := make([]types.Value, n)
			for i := range inputs {
				inputs[i] = types.Value(fmt.Sprintf("v%d", i))
			}
			reqs[k] = Request{Kind: protocols.WBA, Inputs: inputs}
		default:
			reqs[k] = Request{Kind: protocols.StrongBA, Value: types.One}
		}
	}
	return reqs
}

// TestEngineDeterminism is the pinning test behind the engine's whole
// design: per-session decisions, word counts, and message counts are
// byte-identical at every in-flight window size — W=16 fully pipelined
// equals W=1 strictly serial one-at-a-time execution. CI runs it under
// -race; the 16-session workload mixes BB, weak BA (incl. fallback),
// and strong BA, with and without crashes.
func TestEngineDeterminism(t *testing.T) {
	const n, sessions = 5, 16
	for _, f := range []struct {
		f      int
		leader bool
	}{{0, false}, {1, false}, {2, true}} {
		t.Run(fmt.Sprintf("f=%d,leader=%t", f.f, f.leader), func(t *testing.T) {
			reqs := mixedRequests(n, sessions)
			var serial string
			for _, w := range []int{1, 4, 16} {
				pattern := "crash"
				if f.leader {
					pattern = "crash-leader"
				}
				rep, err := Run(Config{
					N: n, F: f.f, Adversary: adversary.ForPattern(pattern, f.f, 0), Inflight: w, Seed: 7,
				}, reqs)
				if err != nil {
					t.Fatalf("W=%d: %v", w, err)
				}
				if rep.TimedOut {
					t.Fatalf("W=%d: timed out at %d ticks", w, rep.Ticks)
				}
				if rep.Metrics.EngineLate != 0 {
					t.Errorf("W=%d: %d late messages (budget too small?)", w, rep.Metrics.EngineLate)
				}
				fp := rep.Fingerprint()
				if w == 1 {
					serial = fp
					for i := range rep.Sessions {
						s := &rep.Sessions[i]
						if !s.AllDecided || !s.Agreement {
							t.Errorf("serial session %d: decided=%t agree=%t", i, s.AllDecided, s.Agreement)
						}
					}
					continue
				}
				if fp != serial {
					t.Errorf("W=%d diverges from serial:\n--- serial ---\n%s--- W=%d ---\n%s", w, serial, w, fp)
				}
				if rep.Ticks >= sessions*rep.SessionTicks {
					t.Errorf("W=%d: no pipelining (%d ticks, serial needs ~%d)", w, rep.Ticks, sessions*rep.SessionTicks)
				}
			}
		})
	}
}

// TestEnginePipeliningSpeedup checks the stride schedule actually
// compresses the run: W in-flight sessions take ~1/W the ticks.
func TestEnginePipeliningSpeedup(t *testing.T) {
	reqs := mixedRequests(5, 12)
	serial, err := Run(Config{N: 5, Inflight: 1}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := Run(Config{N: 5, Inflight: 4}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(serial.Ticks) / float64(piped.Ticks); ratio < 2 {
		t.Errorf("W=4 speedup %.2fx over serial (%d vs %d ticks), want >= 2x",
			ratio, serial.Ticks, piped.Ticks)
	}
}

// TestEngineHalt pins the cancellation hook: Halt aborts the run with
// sim.ErrHalted before the halting tick's machines are stepped.
func TestEngineHalt(t *testing.T) {
	_, err := Run(Config{
		N: 5, Inflight: 2,
		Halt: func(now types.Tick) bool { return now >= 3 },
	}, mixedRequests(5, 8))
	if !errors.Is(err, sim.ErrHalted) {
		t.Fatalf("err = %v, want sim.ErrHalted", err)
	}
}

// TestEngineConfigErrors pins the validation surface.
func TestEngineConfigErrors(t *testing.T) {
	reqs := mixedRequests(5, 2)
	cases := []struct {
		name string
		cfg  Config
		reqs []Request
		want error
	}{
		{"no sessions", Config{N: 5}, nil, ErrNoSessions},
		{"bad n", Config{N: 2}, reqs, ErrConfig},
		{"negative t", Config{N: 5, T: -1}, reqs, ErrConfig},
		{"too many faults", Config{N: 5, F: 3}, reqs, ErrConfig},
		{"bad kind", Config{N: 5}, []Request{{Kind: "nope"}}, ErrConfig},
	}
	for _, c := range cases {
		if _, err := Run(c.cfg, c.reqs); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestBinaryKindsReadValueAsOne: without per-process inputs, strong BA
// and bb-via-ba read a non-binary Value as 1, so every kind of the table
// runs from a bare Request.
func TestBinaryKindsReadValueAsOne(t *testing.T) {
	rep, err := Run(Config{N: 5, F: 1}, []Request{
		{Kind: protocols.StrongBA, Value: types.Value("v")},
		{Kind: protocols.BBViaBA, Value: types.Value("v")},
		{Kind: protocols.BBViaBA, Value: types.Zero},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []types.Value{types.One, types.One, types.Zero} {
		if s := &rep.Sessions[i]; !s.AllDecided || !s.Agreement || !s.Decision.Equal(want) {
			t.Errorf("session %d (%s): decided=%t agree=%t decision %v, want %v",
				i, s.Kind, s.AllDecided, s.Agreement, s.Decision, want)
		}
	}
}

// TestBadInputRejectedBeforeRun: a session whose input is invalid at some
// process — a non-binary strong-BA input at p2, not p0 — is refused as a
// configuration error before the simulator polls Halt even once, and
// before any earlier, valid session runs.
func TestBadInputRejectedBeforeRun(t *testing.T) {
	polls := 0
	_, err := Run(Config{N: 4, Halt: func(types.Tick) bool { polls++; return false }}, []Request{
		{Kind: protocols.BB, Value: types.Value("v")},
		{Kind: protocols.StrongBA, Inputs: []types.Value{types.One, types.One, types.Value("x"), types.One}},
	})
	if !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v, want ErrConfig", err)
	}
	if polls != 0 {
		t.Errorf("the run polled Halt %d times before rejecting the input", polls)
	}
}

// idleMachine never decides and never sends: the procMachine around it
// reaches steady state immediately.
type idleMachine struct{}

func (idleMachine) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing { return outs }
func (idleMachine) Tick(_ types.Tick, _ []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	return outs
}
func (idleMachine) Output() (types.Value, bool) { return nil, false }
func (idleMachine) Done() bool                  { return false }

// checkSteadyTickAllocs asserts that one steady-state tick of p that
// routes two frames allocates nothing. Routing strips session prefixes in
// place, so every run gets the frames afresh; the first tick grows the
// routing arena. Under the race detector sync.Pool drops Puts at random,
// so there the bound is the one thing a drop can cost — a rebuild of the
// single Mux's arena, 7 allocations (proto.TestMuxSteadyStateAllocs) —
// and nothing else.
func checkSteadyTickAllocs(t *testing.T, what string, p *procMachine, now types.Tick) {
	t.Helper()
	pristine := []proto.Incoming{{From: 1, Session: "s0"}, {From: 2, Session: "s3"}}
	inbox := make([]proto.Incoming, len(pristine))
	tick := func() {
		now++
		copy(inbox, pristine)
		p.Tick(now, inbox, nil)
	}
	tick()
	var ceiling float64
	if testenv.Race() {
		ceiling = 7
	}
	allocs := testing.AllocsPerRun(100, tick)
	t.Logf("steady-state %s tick: %.0f allocs/op (ceiling %.0f)", what, allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("steady-state %s tick allocates %.1f/op, want at most %.0f", what, allocs, ceiling)
	}
}

// TestEngineSteadyStateAllocs guards the per-session steady-state path:
// once its sessions are admitted, a process's per-tick scheduling work —
// retirement scan, demux, child stepping — allocates nothing. CI runs
// this as the engine alloc-guard.
func TestEngineSteadyStateAllocs(t *testing.T) {
	p := (&schedule{
		build:    func(int, types.ProcessID) proto.Machine { return idleMachine{} },
		starts:   []types.Tick{0, 2, 4, 6},
		names:    []string{"s0", "s1", "s2", "s3"},
		duration: 1 << 30,
	}).root(0)
	p.Begin(0, nil)
	var now types.Tick
	for now = 1; now < 10; now++ {
		p.Tick(now, nil, nil) // admit everything
	}
	checkSteadyTickAllocs(t, "engine", p, now)
}

// recordMachine never decides and records every frame it is handed.
type recordMachine struct {
	idleMachine
	got []proto.Incoming
}

func (r *recordMachine) Tick(_ types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	r.got = append(r.got, inbox...)
	return outs
}

// TestQueuedAndRetiredSessionFrames pins what the stride schedule does
// with frames that miss their session's slot, on a bare window-1
// procMachine: a frame for queued s1 arriving before its start tick is
// counted unrouted (Run rolls that into EngineLate) and never reaches
// s1's machine; a frame for retired s0 is counted late; a frame inside
// the slot is delivered with the session prefix stripped.
func TestQueuedAndRetiredSessionFrames(t *testing.T) {
	const slot = 4
	machines := []*recordMachine{{}, {}}
	p := (&schedule{
		build:    func(k int, _ types.ProcessID) proto.Machine { return machines[k] },
		starts:   []types.Tick{0, slot},
		names:    []string{"s0", "s1"},
		duration: slot,
	}).root(0)
	p.Begin(0, nil)
	if p.next != 1 {
		t.Fatalf("window-1 Begin admitted %d sessions, want 1", p.next)
	}
	p.Tick(1, []proto.Incoming{{From: 3, Session: "s1/x"}}, nil)
	if got := p.mux.Unrouted(); got != 1 {
		t.Errorf("frame for queued s1: unrouted=%d, want 1", got)
	}
	for now := types.Tick(2); now <= slot; now++ {
		p.Tick(now, nil, nil)
	}
	if p.next != 2 || p.retired != 1 {
		t.Fatalf("at tick %d: next=%d retired=%d, want 2/1", slot, p.next, p.retired)
	}
	p.Tick(slot+1, []proto.Incoming{{From: 2, Session: "s0/y"}, {From: 1, Session: "s1/z"}}, nil)
	if got := p.mux.Late(); got != 1 {
		t.Errorf("frame for retired s0: late=%d, want 1", got)
	}
	if got := p.mux.Unrouted(); got != 1 {
		t.Errorf("unrouted=%d after s1's admission, want still 1", got)
	}
	if got := machines[1].got; len(got) != 1 || got[0].Session != "z" || got[0].From != 1 {
		t.Errorf("s1 received %v, want only the in-slot frame from 1", got)
	}
	if got := machines[0].got; len(got) != 0 {
		t.Errorf("s0 received %v, want nothing", got)
	}
}

// TestRunLogConvergence drives the pipelined log end to end: identical
// entries, committed commands, and kv state hash at every window size,
// fewer ticks when pipelined, and convergence under crashes.
func TestRunLogConvergence(t *testing.T) {
	const n, slots = 5, 10
	queues := make([][]types.Value, n)
	for i := range queues {
		for j := 0; j < 2; j++ {
			queues[i] = append(queues[i], types.Value(fmt.Sprintf("SET k%d-%d p%d", i, j, i)))
		}
	}
	var serial *LogReport
	for _, w := range []int{1, 5} {
		rep, err := RunLog(Config{N: n, F: 1, Inflight: w}, queues, slots)
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if !rep.Converged {
			t.Fatalf("W=%d: log did not converge", w)
		}
		// Proposer p1 is crashed: its slots (1 and 6) commit ⊥.
		if rep.Committed != slots-2 {
			t.Errorf("W=%d: committed %d, want %d", w, rep.Committed, slots-2)
		}
		if len(rep.RejectedCommands) != 0 {
			t.Errorf("W=%d: kv rejected %v", w, rep.RejectedCommands)
		}
		if w == 1 {
			serial = rep
			continue
		}
		if rep.StateHash != serial.StateHash {
			t.Errorf("W=%d state hash %s != serial %s", w, rep.StateHash, serial.StateHash)
		}
		if got, want := rep.Engine.Fingerprint(), serial.Engine.Fingerprint(); got != want {
			t.Errorf("W=%d log sessions diverge from serial:\n%s\nvs\n%s", w, got, want)
		}
		if rep.Engine.Ticks*2 >= serial.Engine.Ticks {
			t.Errorf("W=%d: %d ticks vs serial %d, want >= 2x pipelining",
				w, rep.Engine.Ticks, serial.Engine.Ticks)
		}
	}
}
