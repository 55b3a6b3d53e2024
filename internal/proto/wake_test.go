package proto_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/explore"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv/scenarios"
	"adaptiveba/internal/types"
)

// TestWakesAreExact is the proof that stepping a machine only when it has
// mail or is due changes nothing. Every scenario runs twice: once as the
// runtimes run it, and once under the exactness check, which steps every
// machine at every tick (roots included) and fails on any step before a
// machine's wake, with an empty inbox, that sends something or changes
// its wake, Done or Output. Both runs must give the same outcome, and the
// traced ones the recorded golden traces. -short keeps one corner of each
// grid.
func TestWakesAreExact(t *testing.T) {
	short := testing.Short()
	t.Run("sim-goldens", func(t *testing.T) {
		for _, g := range scenarios.SimGoldens() {
			t.Run(g.Name, func(t *testing.T) {
				want := readGolden(t, "../sim/testdata", g.Name)
				exactly(t, func() string { return string(scenarios.RunSimGolden(t, g)) }, func(got string) {
					if got != string(want) {
						t.Error("trace diverged from the recorded golden")
					}
				})
			})
		}
	})
	t.Run("harness-goldens", func(t *testing.T) {
		for _, g := range []struct {
			name string
			spec harness.Spec
		}{
			{"bb-spam-shuffle", harness.Spec{Protocol: harness.ProtocolBB, N: 9, F: 2, Fault: harness.FaultSpam, ShuffleSeed: 11}},
			{"wba-spam-shuffle", harness.Spec{Protocol: harness.ProtocolWBA, N: 9, F: 4, Fault: harness.FaultSpam, ShuffleSeed: 11}},
		} {
			t.Run(g.name, func(t *testing.T) {
				want := readGolden(t, "../harness/testdata", g.name)
				exactly(t, func() string {
					var trace bytes.Buffer
					spec := g.spec
					spec.OnSend = sim.TraceTo(&trace)
					runSpec(t, spec)
					return trace.String()
				}, func(got string) {
					if got != string(want) {
						t.Error("trace diverged from the recorded golden")
					}
				})
			})
		}
	})
	t.Run("outcome-pins", func(t *testing.T) {
		faults := []harness.Fault{harness.FaultCrash, harness.FaultCrashLeader, harness.FaultReplay}
		if !short {
			faults = append(faults, harness.FaultStagger)
		}
		for _, kind := range protocols.Kinds() {
			for _, fault := range faults {
				t.Run(string(kind)+"/"+string(fault), func(t *testing.T) {
					exactly(t, func() string {
						return runSpec(t, harness.Spec{Protocol: harness.Protocol(kind), N: 9, F: 1, Fault: fault})
					}, nil)
				})
			}
		}
	})
	t.Run("wba-leader-pins", func(t *testing.T) {
		for _, sc := range scenarios.WBALeaderScenarios() {
			if short && sc.Release > 0 {
				continue
			}
			t.Run(sc.Name, func(t *testing.T) {
				exactly(t, func() string { return fmt.Sprintf("%+v", sc.Run(t)) }, nil)
			})
		}
	})
	t.Run("bb-vetting-equivocation", func(t *testing.T) {
		for _, n := range []int{5, 9} {
			t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
				exactly(t, func() string {
					return runSpec(t, harness.Spec{Protocol: harness.ProtocolBB, N: n, F: 2,
						Adversary: func(types.Tick) sim.Adversary {
							return attacks.NewBBVettingEquivocator(harness.Tag(harness.ProtocolBB), types.Value("v1"), types.Value("v2"))
						}})
				}, nil)
			})
		}
	})
	t.Run("early-leader", func(t *testing.T) {
		for _, n := range []int{5, 9} {
			for _, sc := range []struct {
				name    string
				kind    harness.Protocol
				at      types.Tick
				session string
				msg     proto.Payload
			}{
				{"bb-help-request", harness.ProtocolBB, 0, "", bb.HelpReq{Phase: 3}},
				{"bb-wba-proposal", harness.ProtocolBB, bb.PhaseStart(n + 1), bb.WBASession, wba.Propose{Phase: 3, V: types.Value("v")}},
				{"wba-proposal", harness.ProtocolWBA, 0, "", wba.Propose{Phase: 3, V: types.Value("v")}},
			} {
				t.Run(fmt.Sprintf("%s/n=%d", sc.name, n), func(t *testing.T) {
					exactly(t, func() string {
						return runSpec(t, harness.Spec{Protocol: sc.kind, N: n, F: 1,
							Adversary: func(types.Tick) sim.Adversary {
								return &earlyLeader{id: 3, at: sc.at, session: sc.session, msg: sc.msg}
							}})
					}, nil)
				})
			}
		}
	})
	t.Run("explorer-seeds", func(t *testing.T) {
		for _, kind := range []protocols.Kind{protocols.WBA, protocols.BB} {
			for _, n := range []int{5, 9} {
				cfg := explore.Config{Protocol: kind, N: n, F: (n - 1) / 2, Seed: 1}
				if short {
					cfg.Generations, cfg.Population = 1, 3
				}
				t.Run(fmt.Sprintf("%s/n=%d", kind, n), func(t *testing.T) {
					exactly(t, func() string {
						res, err := explore.Explore(cfg)
						if err != nil {
							t.Fatal(err)
						}
						return res.Report()
					}, nil)
				})
			}
		}
	})
	t.Run("acs-crash-grids", func(t *testing.T) {
		for _, n := range []int{4, 9} {
			for f := 0; f <= (n-1)/2; f++ {
				if short && n == 9 && f > 1 {
					continue
				}
				for _, fault := range []harness.Fault{harness.FaultCrash, harness.FaultCrashLeader} {
					t.Run(fmt.Sprintf("n=%d/f=%d/%s", n, f, fault), func(t *testing.T) {
						exactly(t, func() string {
							return runSpec(t, harness.Spec{Protocol: harness.ProtocolACS, N: n, F: f, Fault: fault, Batch: 2})
						}, nil)
					})
				}
			}
		}
	})
	t.Run("commit-shapes", func(t *testing.T) {
		for _, s := range scenarios.CommitShapes() {
			t.Run(s.Name, func(t *testing.T) {
				cfg := engine.Config{N: s.N, T: s.T, F: s.F, Inflight: s.Inflight}
				if s.ShareSuite {
					crypto, err := engine.NewCrypto(s.N, s.T, proto.Generated())
					if err != nil {
						t.Fatal(err)
					}
					cfg.Crypto = crypto
				}
				exactly(t, func() string {
					rep, err := engine.RunACSLog(cfg, s.Queues(), s.Rounds, s.Batch)
					if err != nil {
						t.Fatal(err)
					}
					state, refused := rep.Replay()
					return fmt.Sprintf("%s converged=%t committed=%d state=%s refused=%d",
						rep.Engine.Fingerprint(), rep.Converged, rep.Committed, state, len(refused))
				}, nil)
			})
		}
	})
}

// exactly runs a scenario as the runtimes run it, then again under the
// exactness check, and requires the same result of both; check, if set,
// sees the first.
func exactly(t *testing.T, run func() string, check func(string)) {
	t.Helper()
	want := run()
	if check != nil {
		check(want)
	}
	var mu sync.Mutex
	var failures []string
	proto.CheckAsleep(t, func(err error) {
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, err.Error())
	})
	got := run()
	if len(failures) > 0 {
		t.Errorf("%d steps before a machine's wake acted; first: %s", len(failures), failures[0])
	}
	if got != want {
		t.Errorf("stepping every machine at every tick changed the run:\n got %s\nwant %s", got, want)
	}
}

// runSpec runs spec and renders every part of its outcome that a run's
// steps must not move (the verification cache's counters may).
func runSpec(t *testing.T, spec harness.Spec) string {
	t.Helper()
	o, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]string, 0, len(o.ByLayer))
	for l, st := range o.ByLayer {
		layers = append(layers, fmt.Sprintf("%s:%+v", l, st))
	}
	sort.Strings(layers)
	return fmt.Sprintf("words=%d msgs=%d sigs=%d bytes=%d ticks=%d decided=%t agree=%t decision=%q fallback=%d at=%d layers=%s",
		o.Words, o.Messages, o.Signatures, o.Bytes, o.Ticks, o.Decided, o.Agreement, o.Decision,
		o.FallbackCount, o.DecisionTick, strings.Join(layers, " "))
}

func readGolden(t *testing.T, dir, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(dir, name+".trace"))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// earlyLeader corrupts the leader of a later phase, which at tick at sends
// every process its phase's opening message: the correct processes keep
// it in their stash until the round that reads it, and must wake for that
// round with an empty inbox.
type earlyLeader struct {
	id      types.ProcessID
	at      types.Tick
	session string
	msg     proto.Payload
	n       int
}

func (a *earlyLeader) Init(env sim.Env)                                      { a.n = env.Params.N }
func (a *earlyLeader) Corruptions() []sim.Corruption                         { return []sim.Corruption{{ID: a.id}} }
func (a *earlyLeader) Observe(types.Tick, types.ProcessID, []proto.Incoming) {}
func (a *earlyLeader) Quiescent(now types.Tick) bool                         { return now >= a.at }

func (a *earlyLeader) Act(now types.Tick, _ []sim.Message) []sim.Message {
	if now != a.at {
		return nil
	}
	msgs := make([]sim.Message, a.n)
	for i := range msgs {
		msgs[i] = sim.Message{From: a.id, To: types.ProcessID(i), Session: a.session, Payload: a.msg}
	}
	return msgs
}
