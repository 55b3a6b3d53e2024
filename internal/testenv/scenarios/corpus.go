package scenarios

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/explore"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// equiv is the committed corpus: one line per scenario, in Corpus order.
//
//go:embed testdata/equiv.txt
var equiv string

// Scenario is one run of the equivalence corpus.
type Scenario struct {
	// Name keys the scenario's line in testdata/equiv.txt and names its
	// subtests; its first segment is its group.
	Name string
	// Short marks the scenarios TestWakesAreExact keeps under -short: one
	// corner of each grid.
	Short bool
	// typesOnly hashes each payload by its type and words alone: a run on
	// freshly drawn keys (proto.Ed25519) signs different bytes every time.
	typesOnly bool
	// run runs the scenario once, every send observed by onSend, and
	// fails tb unless the run did what the scenario expects of it.
	run func(tb testing.TB, onSend observer) outcome
}

// observer sees every send of a run (sim.Config.OnSend).
type observer = func(now types.Tick, m sim.Message, honest bool)

// outcome is what a run shows beside its sends: its decisions and outputs
// as text, and its counters. A scenario that is not one observed run (an
// explorer search, an experiment's report) has no sends and no counters.
type outcome struct {
	out          string
	sends        bool
	words, steps int64
	ticks        types.Tick
}

// Line runs the scenario and returns its line of testdata/equiv.txt: the
// SHA-256 of every honest send (tick, from, to, session, type, words and
// the payload's protocols.Registry encoding, or type and words alone for
// a payload the registry does not know), the same of every Byzantine
// send, the SHA-256 of its decisions and outputs, then its honest words,
// ticks and steps. A scenario without sends has the outputs' hash alone.
// It fails tb first if the run is not what the scenario expects.
func (sc Scenario) Line(tb testing.TB) string {
	tb.Helper()
	rec := recorder{honest: sha256.New(), byz: sha256.New(), bytes: !sc.typesOnly}
	o := sc.run(tb, rec.observe)
	if rec.err != nil {
		tb.Fatalf("%s: %v", sc.Name, rec.err)
	}
	return rec.line(sc.Name, o)
}

// Committed returns testdata/equiv.txt's line of each scenario, by name.
func Committed() map[string]string {
	lines := make(map[string]string)
	for _, l := range strings.Split(strings.TrimSpace(equiv), "\n") {
		name, _, _ := strings.Cut(l, " ")
		lines[name] = l
	}
	return lines
}

// ExceptSteps is line without its steps: the one field that stepping
// every machine at every tick moves.
func ExceptSteps(line string) string {
	if i := strings.Index(line, " steps="); i >= 0 {
		return line[:i]
	}
	return line
}

// Each runs f on each of scs as a subtest of t named after it: one
// subtest per group, the rest of the name under it.
func Each(t *testing.T, scs []Scenario, f func(t *testing.T, sc Scenario)) {
	for len(scs) > 0 {
		group, _, _ := strings.Cut(scs[0].Name, "/")
		n := 1
		for n < len(scs) && strings.HasPrefix(scs[n].Name, group+"/") {
			n++
		}
		t.Run(group, func(t *testing.T) {
			for _, sc := range scs[:n] {
				t.Run(strings.TrimPrefix(sc.Name, group+"/"), func(t *testing.T) { f(t, sc) })
			}
		})
		scs = scs[n:]
	}
}

// registry frames every protocol payload a send is hashed with.
var registry = protocols.Registry()

// recorder is the one OnSend observer of a scenario: it hashes the honest
// and the Byzantine sends apart, in charge order.
type recorder struct {
	honest, byz hash.Hash
	bytes       bool // hash payload encodings, not only types and words
	buf         []byte
	err         error
}

func (r *recorder) observe(now types.Tick, m sim.Message, honest bool) {
	b := binary.AppendUvarint(r.buf[:0], uint64(now))
	b = binary.AppendUvarint(b, uint64(m.From))
	b = binary.AppendUvarint(b, uint64(m.To))
	b = appendString(b, m.Session)
	typ, words := "", 0
	if m.Payload != nil {
		typ, words = m.Payload.Type(), m.Payload.Words()
	}
	b = appendString(b, typ)
	b = binary.AppendVarint(b, int64(words))
	if r.bytes && m.Payload != nil {
		frame, err := registry.EncodePayload(m.Payload)
		switch {
		case err == nil:
			b = appendString(b, string(frame))
		case !errors.Is(err, wire.ErrUnknownType) && r.err == nil:
			r.err = err
		}
	}
	if honest {
		r.honest.Write(b)
	} else {
		r.byz.Write(b)
	}
	r.buf = b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func (r *recorder) line(name string, o outcome) string {
	out := sha256.Sum256([]byte(o.out))
	if !o.sends {
		return fmt.Sprintf("%s out=%x", name, out)
	}
	return fmt.Sprintf("%s honest=%x byz=%x out=%x words=%d ticks=%d steps=%d",
		name, r.honest.Sum(nil), r.byz.Sum(nil), out, o.words, o.ticks, o.steps)
}

// Corpus is every scenario of the equivalence corpus, in file order:
//   - sim-goldens: SimGoldens;
//   - harness-goldens: BB and weak BA at n = 9 under the phase-spam genome
//     with shuffled delivery;
//   - outcome-pins: every protocol kind at n = 9, f = 1 under crash,
//     crash-leader, replay and stagger;
//   - wba-leader-pins: WBALeaderScenarios;
//   - bb-vetting-equivocation: attacks.BBVettingEquivocator at n = 5, 9;
//   - early-leader: a later phase's leader sending its opening message
//     early, which correct processes stash and must wake for;
//   - explorer-seeds: the explorer's seeded search for BB and weak BA at
//     n = 5, 9;
//   - acs-crash-grids: ACS at n = 4, 9, every f ≤ t, crash and
//     crash-leader;
//   - commit-shapes: CommitShapes;
//   - grid-cells: experiment-grid protocols with and without shuffled
//     delivery and an adversary, one on Ed25519 keys;
//   - acs-round: one ACS round at n = 9, batch 2, p1 crashed;
//   - exp: the report of every experiment (adaptiveba-bench -exp).
func Corpus() []Scenario {
	var scs []Scenario
	for _, g := range SimGoldens() {
		scs = append(scs, simGolden(g))
	}
	scs = append(scs,
		spec("harness-goldens/bb-spam-shuffle", true, harness.Spec{Protocol: harness.ProtocolBB, N: 9, F: 2, Fault: harness.FaultSpam, ShuffleSeed: 11}),
		spec("harness-goldens/wba-spam-shuffle", true, harness.Spec{Protocol: harness.ProtocolWBA, N: 9, F: 4, Fault: harness.FaultSpam, ShuffleSeed: 11}),
	)
	for _, kind := range protocols.Kinds() {
		for _, fault := range []harness.Fault{harness.FaultCrash, harness.FaultCrashLeader, harness.FaultReplay, harness.FaultStagger} {
			scs = append(scs, spec("outcome-pins/"+string(kind)+"/"+string(fault), fault != harness.FaultStagger,
				harness.Spec{Protocol: harness.Protocol(kind), N: 9, F: 1, Fault: fault}))
		}
	}
	for _, sc := range WBALeaderScenarios() {
		scs = append(scs, wbaLeader(sc))
	}
	for _, n := range []int{5, 9} {
		scs = append(scs, spec(fmt.Sprintf("bb-vetting-equivocation/n=%d", n), true, harness.Spec{Protocol: harness.ProtocolBB, N: n, F: 2,
			Adversary: func(types.Tick) sim.Adversary {
				return attacks.NewBBVettingEquivocator(harness.Tag(harness.ProtocolBB), types.Value("v1"), types.Value("v2"))
			}}))
	}
	for _, n := range []int{5, 9} {
		for _, e := range []struct {
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
			scs = append(scs, spec(fmt.Sprintf("early-leader/%s/n=%d", e.name, n), true, harness.Spec{Protocol: e.kind, N: n, F: 1,
				Adversary: func(types.Tick) sim.Adversary {
					return &earlyLeader{id: 3, at: e.at, session: e.session, msg: e.msg}
				}}))
		}
	}
	for _, kind := range []protocols.Kind{protocols.WBA, protocols.BB} {
		for _, n := range []int{5, 9} {
			scs = append(scs, explorerSeeds(kind, n))
		}
	}
	for _, n := range []int{4, 9} {
		for f := 0; f <= (n-1)/2; f++ {
			for _, fault := range []harness.Fault{harness.FaultCrash, harness.FaultCrashLeader} {
				scs = append(scs, spec(fmt.Sprintf("acs-crash-grids/n=%d/f=%d/%s", n, f, fault), n == 4 || f <= 1,
					harness.Spec{Protocol: harness.ProtocolACS, N: n, F: f, Fault: fault, Batch: 2}))
			}
		}
	}
	for _, s := range CommitShapes() {
		scs = append(scs, commitShape(s))
	}
	for i, c := range []harness.Spec{
		{Protocol: harness.ProtocolBB, N: 9, F: 0},
		{Protocol: harness.ProtocolBB, N: 9, F: 2, Fault: harness.FaultSpam},
		{Protocol: harness.ProtocolBB, N: 9, F: 2, Fault: harness.FaultSpam, ShuffleSeed: 7},
		{Protocol: harness.ProtocolACS, N: 9, F: 1, Fault: harness.FaultCrash, ShuffleSeed: 13},
		{Protocol: harness.ProtocolWBA, N: 9, F: 0, ShuffleSeed: 3},
		{Protocol: harness.ProtocolWBA, N: 9, F: 2, Fault: harness.FaultReplay},
		{Protocol: harness.ProtocolWBA, N: 17, F: 8, Fault: harness.FaultCrash, ShuffleSeed: 11, Ed25519: true},
		{Protocol: harness.ProtocolStrongBA, N: 9, F: 2, Fault: harness.FaultCrash, ShuffleSeed: 5},
		{Protocol: harness.ProtocolStrongBA, N: 17, F: 1, Fault: harness.FaultCrashLeader},
		{Protocol: harness.ProtocolDolevStrong, N: 7, F: 2, Fault: harness.FaultSpam, ShuffleSeed: 9},
		{Protocol: harness.ProtocolBBViaBA, N: 9, F: 1, Fault: harness.FaultStagger},
	} {
		scs = append(scs, spec(fmt.Sprintf("grid-cells/%s-n%d-f%d-%s-shuffle%d", c.Protocol, c.N, c.F, c.Fault, c.ShuffleSeed), i < 4, c))
	}
	scs = append(scs, acsRound())
	for _, e := range harness.Experiments() {
		scs = append(scs, experiment(e))
	}
	return scs
}

// spec is a harness run of s, which must decide with agreement. Its
// outputs are every Outcome field a run's steps must not move (the
// verification cache's counters may).
func spec(name string, short bool, s harness.Spec) Scenario {
	return Scenario{Name: name, Short: short, typesOnly: s.Ed25519, run: func(tb testing.TB, onSend observer) outcome {
		tb.Helper()
		observed := s
		observed.OnSend = onSend
		o, err := harness.Run(observed)
		if err != nil {
			tb.Fatal(err)
		}
		if !o.Decided || !o.Agreement {
			tb.Fatalf("%s: decided=%t agreement=%t, want both", name, o.Decided, o.Agreement)
		}
		layers := make([]string, 0, len(o.ByLayer))
		for l, st := range o.ByLayer {
			layers = append(layers, fmt.Sprintf("%s:%+v", l, st))
		}
		sort.Strings(layers)
		return outcome{
			out: fmt.Sprintf("words=%d msgs=%d sigs=%d bytes=%d ticks=%d decided=%t agree=%t decision=%q fallback=%d at=%d layers=%s",
				o.Words, o.Messages, o.Signatures, o.Bytes, o.Ticks, o.Decided, o.Agreement, o.Decision,
				o.FallbackCount, o.DecisionTick, strings.Join(layers, " ")),
			sends: true, words: o.Words, ticks: o.Ticks, steps: o.Steps,
		}
	}}
}

// simOutcome is a simulator run's outcome: each correct process's
// decision ("-" undecided), then extra.
func simOutcome(res *sim.Result, extra string) outcome {
	var b strings.Builder
	for _, id := range res.Honest {
		if v, ok := res.Decisions[id]; ok {
			fmt.Fprintf(&b, "p%d=%q ", id, []byte(v))
		} else {
			fmt.Fprintf(&b, "p%d=- ", id)
		}
	}
	fmt.Fprintf(&b, "timedout=%t %s", res.TimedOut, extra)
	return outcome{out: b.String(), sends: true, words: res.Report.Honest.Words, ticks: res.Ticks, steps: res.Report.Steps}
}

// simGolden runs g, whose every Echoer must reach its horizon.
func simGolden(g SimGolden) Scenario {
	return Scenario{Name: "sim-goldens/" + g.Name, Short: true, run: func(tb testing.TB, onSend observer) outcome {
		tb.Helper()
		crypto, params := Suite(tb, g.N)
		cfg := sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(types.ProcessID) proto.Machine {
				return &Echoer{Params: params, Horizon: 5}
			},
			MaxTicks:    64,
			OnSend:      onSend,
			ShuffleSeed: g.ShuffleSeed,
		}
		if g.Relay != nil {
			cfg.Adversary = &RushingRelay{IDs: g.Relay}
		}
		res, err := sim.Run(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if res.TimedOut || !res.AllDecided() {
			tb.Fatalf("%s: timed out %t, all done %t", g.Name, res.TimedOut, res.AllDecided())
		}
		return simOutcome(res, "")
	}}
}

// wbaLeader runs sc, which must give its pinned outcome: for the split
// vote at the naive quorum, decisions that disagree.
func wbaLeader(sc WBALeaderScenario) Scenario {
	return Scenario{Name: "wba-leader-pins/" + sc.Name, Short: sc.Release == 0, run: func(tb testing.TB, onSend observer) outcome {
		tb.Helper()
		got, res := sc.run(tb, onSend)
		if got != sc.Want {
			tb.Fatalf("%s: got %+v, pinned %+v", sc.Name, got, sc.Want)
		}
		return simOutcome(res, fmt.Sprintf("%+v", got))
	}}
}

// explorerSeeds is the explorer's search for kind at n with F = t from
// seed 1, which must find no schedule that breaks an invariant or the
// word envelope.
func explorerSeeds(kind protocols.Kind, n int) Scenario {
	cfg := explore.Config{Protocol: kind, N: n, F: (n - 1) / 2, Seed: 1}
	return Scenario{Name: fmt.Sprintf("explorer-seeds/%s/n=%d", kind, n), Short: n == 5, run: func(tb testing.TB, _ observer) outcome {
		tb.Helper()
		res, err := explore.Explore(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if len(res.Violating) > 0 || !res.UnderEnvelope() {
			tb.Fatalf("%s n=%d: %d violating schedules, under the envelope %t", kind, n, len(res.Violating), res.UnderEnvelope())
		}
		return outcome{out: res.Report()}
	}}
}

// commitShape makes s's call, which must converge and commit
// s.Committed commands. A shared suite is built on derived keys, so its
// signatures are the same bytes every run.
func commitShape(s CommitShape) Scenario {
	return Scenario{Name: "commit-shapes/" + s.Name, Short: true, run: func(tb testing.TB, onSend observer) outcome {
		tb.Helper()
		cfg := engine.Config{N: s.N, T: s.T, F: s.F, Inflight: s.Inflight, OnSend: onSend}
		if s.ShareSuite {
			crypto, err := engine.NewCrypto(s.N, s.T, proto.Derived("scenarios", "scenarios-dealer"))
			if err != nil {
				tb.Fatal(err)
			}
			cfg.Crypto = crypto
		}
		rep, err := engine.RunACSLog(cfg, s.Queues(), s.Rounds, s.Batch)
		if err != nil {
			tb.Fatal(err)
		}
		if !rep.Converged || rep.Committed != s.Committed {
			tb.Fatalf("%s: converged=%t committed=%d, want %d", s.Name, rep.Converged, rep.Committed, s.Committed)
		}
		state, refused := rep.Replay()
		return outcome{
			out: fmt.Sprintf("%s converged=%t committed=%d state=%s refused=%d",
				rep.Engine.Fingerprint(), rep.Converged, rep.Committed, state, len(refused)),
			sends: true, words: rep.Engine.Metrics.Honest.Words, ticks: rep.Engine.Ticks, steps: rep.Engine.Metrics.Steps,
		}
	}}
}

// acsRound is one ACS round at n = 9 with p1 crashed, every proposer a
// batch of two commands: every correct process must decide, agree and
// not fail.
func acsRound() Scenario {
	return Scenario{Name: "acs-round/n=9/batch=2/p1-crashed", Short: true, run: func(tb testing.TB, onSend observer) outcome {
		tb.Helper()
		crypto, params := Suite(tb, 9)
		machines := make(map[types.ProcessID]*acs.Machine)
		res, err := sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				cmds := []types.Value{types.Value(fmt.Sprintf("SET p%d-0 v0", id)), types.Value(fmt.Sprintf("SET p%d-1 v1", id))}
				machines[id] = acs.NewMachine(acs.Config{Params: params, Crypto: crypto, ID: id, Input: acs.EncodeBatch(cmds), Tag: "t"})
				return machines[id]
			},
			Adversary: adversary.NewCrash(1),
			MaxTicks:  acs.MaxTicks(params) + 4,
			OnSend:    onSend,
		})
		if err != nil {
			tb.Fatal(err)
		}
		_, agree := res.Agreement()
		if res.TimedOut || !res.AllDecided() || !agree {
			tb.Fatalf("acs round: timed out %t, all decided %t, agreement %t", res.TimedOut, res.AllDecided(), agree)
		}
		for _, id := range res.Honest {
			if err := machines[id].Failed(); err != nil {
				tb.Fatalf("acs round: p%d failed: %v", id, err)
			}
		}
		return simOutcome(res, "")
	}}
}

// experiment is e's report, which must build without error.
func experiment(e harness.Experiment) Scenario {
	return Scenario{Name: "exp/" + e.ID, Short: true, run: func(tb testing.TB, _ observer) outcome {
		tb.Helper()
		report, err := e.Run()
		if err != nil {
			tb.Fatalf("%s: %v", e.ID, err)
		}
		return outcome{out: report}
	}}
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
