package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// groupOutcome is what a run reports of itself as a whole and of each of
// its sessions, everything but the verification-cache counters (whether
// a lookup another worker has in flight counts as a hit or a wait is
// thread timing).
type groupOutcome struct {
	Fingerprint       string
	Sessions          []SessionResult
	Honest, Byzantine metrics.Stats
	ByLayer           map[string]metrics.Stats
	Ticks             types.Tick
	TimedOut          bool
	EngineLate        int64
}

func outcomeOf(rep *Report) groupOutcome {
	return groupOutcome{
		Fingerprint: rep.Fingerprint(), Sessions: rep.Sessions,
		Honest: rep.Metrics.Honest, Byzantine: rep.Metrics.Byzantine, ByLayer: rep.Metrics.ByLayer,
		Ticks: rep.Ticks, TimedOut: rep.TimedOut, EngineLate: rep.Metrics.EngineLate,
	}
}

// TestSessionGroupsMatchOneSimulation pins that dealing a crash-only run's
// sessions to concurrent simulations changes nothing a caller can see:
// at 2 and 3 CPUs, where Run splits the run into that many groups, every
// session's result and the run's words, messages, layers, ticks, timeout
// and late frames are byte-identical to the one simulation of GOMAXPROCS
// 1, at every window size and for every crash pattern. Runs observed as
// a whole stay one simulation, and a split run halts and panics as one.
func TestSessionGroupsMatchOneSimulation(t *testing.T) {
	const sessions, f = 6, 2
	for _, n := range []int{5, 9} {
		for _, pattern := range []string{"crash", "crash-leader", "stagger"} {
			for _, w := range []int{0, 1, 4} {
				t.Run(fmt.Sprintf("n%d/%s/W%d", n, pattern, w), func(t *testing.T) {
					reqs := mixedRequests(n, sessions)
					cfg := Config{N: n, F: f, Adversary: adversary.ForPattern(pattern, f, 0), Inflight: w, Seed: 11}
					var want groupOutcome
					for _, procs := range []int{1, 2, 3} {
						testenv.Procs(t, procs)
						if g := sessionGroups(&cfg, cfg.adversary(0), sessions); g != procs {
							t.Fatalf("GOMAXPROCS %d: %d session groups, want %d", procs, g, procs)
						}
						rep, err := Run(cfg, reqs)
						if err != nil {
							t.Fatalf("GOMAXPROCS %d: %v", procs, err)
						}
						got := outcomeOf(rep)
						if procs == 1 {
							want = got
							if rep.TimedOut {
								t.Fatalf("timed out at %d ticks", rep.Ticks)
							}
							continue
						}
						if got.Fingerprint != want.Fingerprint {
							t.Errorf("GOMAXPROCS %d: fingerprint differs:\n--- one simulation ---\n%s--- %d groups ---\n%s", procs, want.Fingerprint, procs, got.Fingerprint)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("GOMAXPROCS %d: outcome differs from one simulation:\n got %+v\nwant %+v", procs, got, want)
						}
					}
				})
			}
		}
	}

	// A traced run, whose trace must be the one-simulation trace line for
	// line, and one under the replay adversary, which remembers traffic
	// across sessions, are never split.
	for _, tc := range []struct {
		name   string
		cfg    Config
		traced bool
	}{
		{"OnSend", Config{N: 5, F: f, Adversary: adversary.ForPattern("crash", f, 0), Inflight: 2, Seed: 5}, true},
		{"replay", Config{N: 5, F: f, Adversary: adversary.ForPattern("replay", f, 9), Inflight: 2, Seed: 5}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs := mixedRequests(5, sessions)
			var want groupOutcome
			var wantTrace string
			for _, procs := range []int{1, 2} {
				testenv.Procs(t, procs)
				cfg := tc.cfg
				var trace bytes.Buffer
				if tc.traced {
					cfg.OnSend = sim.TraceTo(&trace)
				}
				if g := sessionGroups(&cfg, cfg.adversary(0), sessions); g != 1 {
					t.Fatalf("GOMAXPROCS %d: %d session groups, want 1", procs, g)
				}
				rep, err := Run(cfg, reqs)
				if err != nil {
					t.Fatal(err)
				}
				if procs == 1 {
					want, wantTrace = outcomeOf(rep), trace.String()
					continue
				}
				if got := outcomeOf(rep); !reflect.DeepEqual(got, want) {
					t.Errorf("GOMAXPROCS %d: outcome differs:\n got %+v\nwant %+v", procs, got, want)
				}
				if trace.String() != wantTrace {
					t.Errorf("GOMAXPROCS %d: trace differs from the GOMAXPROCS 1 trace", procs)
				}
			}
			if tc.traced && wantTrace == "" {
				t.Error("the traced run wrote no trace")
			}
		})
	}

	// Halt stops every group, Run returns sim.ErrHalted, and no group's
	// goroutine outlives the call.
	t.Run("halt", func(t *testing.T) {
		testenv.NoLeaks(t)
		testenv.Procs(t, 2)
		_, err := Run(Config{
			N: 5, F: 1, Inflight: 2,
			Halt: func(now types.Tick) bool { return now >= 5 },
		}, mixedRequests(5, sessions))
		if !errors.Is(err, sim.ErrHalted) {
			t.Fatalf("err = %v, want sim.ErrHalted", err)
		}
	})

	// A machine's panic in one group reaches Run's caller on the caller's
	// goroutine, with its value, after every group has ended.
	t.Run("panic", func(t *testing.T) {
		testenv.NoLeaks(t)
		testenv.Procs(t, 2)
		reqs := mixedRequests(5, 4)
		// Session 1 is weak BA in group 1; its predicate runs only inside
		// the run, when a machine checks a proposal.
		if reqs[1].kind() != protocols.WBA {
			t.Fatalf("session 1 is %s, want wba", reqs[1].kind())
		}
		reqs[1].Predicate = func(types.Value) bool { panic(groupPanic{}) }
		defer func() {
			if r := recover(); r != (groupPanic{}) {
				t.Errorf("recovered %v, want the predicate's panic", r)
			}
		}()
		Run(Config{N: 5, F: 1, Inflight: 2}, reqs)
		t.Error("Run returned; want the predicate's panic")
	})
}

// groupPanic is the value the panic case's predicate panics with.
type groupPanic struct{}

// TestSessionGroupsVerifyMintedCertsOnce runs a crash-only multi-session
// run whose session groups mint and verify certificates at once on the
// schemes of one suite; CI runs it under -race. At 1, 2 and 3 CPUs the
// run computes the same number of dealer MACs and reports the same
// outcome: a certificate is checked from its mint record whichever group
// minted it and whatever the other groups do meanwhile. The count is
// pinned: 14, where checking every certificate with a MAC costs 112.
func TestSessionGroupsVerifyMintedCertsOnce(t *testing.T) {
	const n, sessions, f = 9, 8, 2
	reqs := mixedRequests(n, sessions)
	cfg := Config{N: n, F: f, Adversary: adversary.ForPattern("crash", f, 0), Inflight: 4, Seed: 3}
	var want groupOutcome
	var wantMACs uint64
	for _, procs := range []int{1, 2, 3} {
		testenv.Procs(t, procs)
		before := threshold.DealerMACs()
		rep, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		macs, got := threshold.DealerMACs()-before, outcomeOf(rep)
		if procs == 1 {
			want, wantMACs = got, macs
			if macs != 14 {
				t.Errorf("%d dealer MACs per run, want 14", macs)
			}
			continue
		}
		if macs != wantMACs {
			t.Errorf("GOMAXPROCS %d: %d dealer MACs, want the one simulation's %d", procs, macs, wantMACs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: outcome differs from one simulation:\n got %+v\nwant %+v", procs, got, want)
		}
	}
}
