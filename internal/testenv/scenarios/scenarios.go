// Package scenarios is the equivalence corpus: one table of named runs
// (Corpus) — the simulator's schedules, protocol runs under crashes,
// replays and attacks, the public API's single-instance calls, explorer
// searches, ACS rounds, the engine calls behind the repo benchmark's
// writes and every experiment's report — each reduced to one line of
// testdata/equiv.txt that hashes every honest and every Byzantine send
// apart, digests the decisions and outputs, and counts words, ticks and
// steps. A public call has no send observer: its line digests every
// Result field and counts words and ticks.
//
// A change that must not move behaviour leaves the file as it is:
//
//	go test ./internal/testenv/scenarios -run TestEquivalence
//
// A change that does move it rewrites the file with -update and says
// which lines moved. The wake exactness check (internal/proto
// TestWakesAreExact) requires the same lines, steps excepted, of runs
// that step every machine at every tick, and the tests that pin the weak
// BA coalition and the commit shapes build them from this one copy.
//
// It imports the simulator, the harness, the engine and the protocol
// machines, so it is not part of internal/testenv, which the in-package
// tests of those packages import; the tests that use it are external
// test packages.
package scenarios

import (
	"encoding/base64"
	"fmt"
	"slices"
	"strings"
	"testing"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// Suite is an n-process crypto suite for the runs here.
func Suite(tb testing.TB, n int) (*proto.Crypto, types.Params) {
	tb.Helper()
	params, err := types.NewParams(n)
	if err != nil {
		tb.Fatal(err)
	}
	crypto, err := proto.Setup(params, proto.Derived("scenarios", "scenarios-dealer"), threshold.ModeCompact)
	if err != nil {
		tb.Fatal(err)
	}
	return crypto, params
}

// SimGolden is one of the simulator's schedules: Echoers at n processes
// under ShuffleSeed, with a RushingRelay corrupting Relay if it is set.
type SimGolden struct {
	Name        string
	N           int
	ShuffleSeed int64
	Relay       []types.ProcessID
}

// SimGoldens are the simulator's schedules. scale-n64 pins the
// counting-sort delivery at a larger n, with both adversary ids near the
// top of the ID range.
func SimGoldens() []SimGolden {
	return []SimGolden{
		{Name: "noshuffle", N: 7},
		{Name: "shuffle-seed7", N: 7, ShuffleSeed: 7},
		{Name: "shuffle-seed13", N: 9, ShuffleSeed: 13},
		{Name: "adversary-noshuffle", N: 7, Relay: []types.ProcessID{5, 6}},
		{Name: "adversary-shuffle-seed7", N: 7, ShuffleSeed: 7, Relay: []types.ProcessID{5, 6}},
		{Name: "scale-n64-shuffle-seed11", N: 64, ShuffleSeed: 11, Relay: []types.ProcessID{60, 62}},
	}
}

// EchoPayload is a one-word payload; a trace records its type.
type EchoPayload struct{}

func (EchoPayload) Type() string { return "golden/echo" }
func (EchoPayload) Words() int   { return 1 }

// Echoer broadcasts at Begin and then, until its horizon, answers every
// inbox message in arrival order, so a trace is a faithful transcript of
// each tick's delivery permutation. Without mail it acts only at its
// horizon, where it becomes done (its wake), so a run of Echoers skips
// the ticks in between.
type Echoer struct {
	Params  types.Params
	Horizon types.Tick
	now     types.Tick
}

func (e *Echoer) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return proto.AppendBroadcast(outs, e.Params, "", EchoPayload{})
}

func (e *Echoer) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	e.now = now
	if now >= e.Horizon {
		return outs
	}
	for _, in := range inbox {
		outs = proto.AppendUnicast(outs, in.From, "", EchoPayload{})
	}
	return outs
}

// Wake implements proto.Waker.
func (e *Echoer) Wake() types.Tick {
	if e.now < e.Horizon {
		return e.Horizon
	}
	return proto.Never
}

func (e *Echoer) Output() (types.Value, bool) { return nil, e.now >= e.Horizon }
func (e *Echoer) Done() bool                  { return e.now >= e.Horizon }

// RelayPayload marks adversary relays in a trace.
type RelayPayload struct{}

func (RelayPayload) Type() string { return "golden/relay" }
func (RelayPayload) Words() int   { return 1 }

// RushingRelay exercises the rushing-adversary contract: until tick 4 it
// answers every third honest message of a tick and every other sender it
// observed in its corrupted inboxes, from IDs[0]. Its sends are a
// function of the order of the honest traffic it just saw and of the
// order of its observed inboxes, so any reordering of either shows up in
// a trace.
type RushingRelay struct {
	IDs      []types.ProcessID // corrupted from the start
	observed []types.ProcessID // senders seen in corrupted inboxes, in order
}

func (a *RushingRelay) Init(sim.Env) {}

func (a *RushingRelay) Corruptions() []sim.Corruption {
	cs := make([]sim.Corruption, len(a.IDs))
	for i, id := range a.IDs {
		cs[i] = sim.Corruption{ID: id}
	}
	return cs
}

func (a *RushingRelay) Observe(_ types.Tick, _ types.ProcessID, inbox []proto.Incoming) {
	for _, in := range inbox {
		a.observed = append(a.observed, in.From)
	}
}

func (a *RushingRelay) Act(now types.Tick, honest []sim.Message) []sim.Message {
	if now >= 4 {
		return nil
	}
	from := a.IDs[0]
	var msgs []sim.Message
	for i, m := range honest {
		if i%3 == 0 {
			msgs = append(msgs, sim.Message{From: from, To: m.From, Payload: RelayPayload{}})
		}
	}
	for i, sender := range a.observed {
		if i%2 == 0 && !slices.Contains(a.IDs, sender) {
			msgs = append(msgs, sim.Message{From: from, To: sender, Payload: RelayPayload{}})
		}
	}
	a.observed = a.observed[:0]
	return msgs
}

func (a *RushingRelay) Quiescent(now types.Tick) bool { return now >= 4 }

// CoalitionScenario is a weak BA run at N processes (9 if 0) against the
// compiled Genome, with Want its pinned outcome.
type CoalitionScenario struct {
	Name, Tag, Input string
	N                int
	QuorumOverride   int // the correct processes' quorum; 0 = the paper's
	Genome           attacks.Genome
	Want             CoalitionOutcome
}

// CoalitionOutcome is what a CoalitionScenario pins: the honest words,
// messages and ticks, each correct process's decision ("p0:v", "p3:-"
// undecided) and how many correct processes ran the fallback.
type CoalitionOutcome struct {
	Words, Messages int64
	Ticks           types.Tick
	Decisions       string
	Fallbacks       int
}

// CoalitionScenarios are attacks.Coalition genomes, p1 and the top t − 1
// ids corrupted: the split vote at the naive t + 1 quorum (which breaks
// agreement) and at the paper's, the selective finalize that denies p3
// the certificate, and that finalize with a fallback certificate released
// late to every correct process or to p0 only, all at n = 9; the split
// votes and the selective finalize again at n = 7; and a late release
// with no phase-1 proposal, from the t corrupted processes at n = 9 and
// n = 7 and from p7 and p8 alone.
func CoalitionScenarios() []CoalitionScenario {
	params, _ := types.NewParams(9)
	params7, _ := types.NewParams(7)
	// Leads of p1: two faces ("v", "w") denying nobody (the target is p1
	// itself), at t + 1 or the paper's quorum; one face "v" denying p3.
	naiveSplit := attacks.Move{Op: attacks.OpLead, Count: 1, Arg: 1, Target: 1}
	paperSplit := attacks.Move{Op: attacks.OpLead, Count: 1, Target: 1}
	selective := attacks.Move{Op: attacks.OpLead, Target: 3}
	release := func(tick uint8) attacks.Move { return attacks.Move{Op: attacks.OpRelease, Arg: tick} }
	toP0 := attacks.Move{Op: attacks.OpRelease, Arg: 150, Count: 1, Target: 0}
	p7p8 := attacks.Genome{Corruptions: []attacks.Corrupt{{Slot: 7, Moves: []attacks.Move{release(200)}}, {Slot: 8}}}
	return []CoalitionScenario{
		{Name: "split-vote-naive-quorum", Tag: "q", Input: "honest", QuorumOverride: params.SmallQuorum(), Genome: attacks.Coalition(9, params.T, naiveSplit),
			Want: CoalitionOutcome{Words: 10, Messages: 10, Ticks: 27, Decisions: "p0:v p2:w p3:v p4:w p5:v"}},
		{Name: "split-vote-paper-quorum", Tag: "q", Input: "honest", Genome: attacks.Coalition(9, params.T, paperSplit),
			Want: CoalitionOutcome{Words: 78, Messages: 78, Ticks: 27, Decisions: "p0:v p2:v p3:v p4:v p5:v"}},
		{Name: "selective-finalize", Tag: "s", Input: "v", Genome: attacks.Coalition(9, params.T, selective),
			Want: CoalitionOutcome{Words: 46, Messages: 46, Ticks: 27, Decisions: "p0:v p2:v p3:v p4:v p5:v"}},
		{Name: "selective-late-release-to-all", Tag: "s", Input: "v", Genome: attacks.Coalition(9, params.T, selective, release(150)),
			Want: CoalitionOutcome{Words: 686, Messages: 286, Ticks: 223, Decisions: "p0:v p2:v p3:v p4:v p5:v", Fallbacks: 5}},
		{Name: "selective-late-release-to-p0", Tag: "s", Input: "v", Genome: attacks.Coalition(9, params.T, selective, toP0),
			Want: CoalitionOutcome{Words: 686, Messages: 286, Ticks: 223, Decisions: "p0:v p2:v p3:v p4:v p5:v", Fallbacks: 5}},
		{Name: "split-vote-naive-quorum-n7", Tag: "q", Input: "honest", N: 7, QuorumOverride: params7.SmallQuorum(), Genome: attacks.Coalition(7, params7.T, naiveSplit),
			Want: CoalitionOutcome{Words: 8, Messages: 8, Ticks: 22, Decisions: "p0:v p2:w p3:v p4:w"}},
		{Name: "split-vote-paper-quorum-n7", Tag: "q", Input: "honest", N: 7, Genome: attacks.Coalition(7, params7.T, paperSplit),
			Want: CoalitionOutcome{Words: 367, Messages: 175, Ticks: 31, Decisions: "p0:honest p2:honest p3:honest p4:honest", Fallbacks: 4}},
		{Name: "selective-finalize-n7", Tag: "s", Input: "v", N: 7, Genome: attacks.Coalition(7, params7.T, selective),
			Want: CoalitionOutcome{Words: 35, Messages: 35, Ticks: 22, Decisions: "p0:v p2:v p3:v p4:v"}},
		{Name: "late-release", Tag: "h", Input: "v", Genome: attacks.Coalition(9, params.T, release(150)),
			Want: CoalitionOutcome{Words: 728, Messages: 328, Ticks: 223, Decisions: "p0:v p2:v p3:v p4:v p5:v", Fallbacks: 5}},
		{Name: "late-release-n7", Tag: "h", Input: "v", N: 7, Genome: attacks.Coalition(7, params7.T, release(150)),
			Want: CoalitionOutcome{Words: 363, Messages: 171, Ticks: 215, Decisions: "p0:v p2:v p3:v p4:v", Fallbacks: 4}},
		{Name: "late-release-p7-p8", Tag: "h", Input: "v", Genome: p7p8,
			Want: CoalitionOutcome{Words: 36, Messages: 36, Ticks: 273, Decisions: "p0:v p1:v p2:v p3:v p4:v p5:v p6:v"}},
	}
}

// Run runs the scenario and returns its outcome.
func (sc CoalitionScenario) Run(tb testing.TB) CoalitionOutcome {
	tb.Helper()
	out, _ := sc.run(tb, nil)
	return out
}

// run runs the scenario with onSend observing every send.
func (sc CoalitionScenario) run(tb testing.TB, onSend observer) (CoalitionOutcome, *sim.Result) {
	tb.Helper()
	n := sc.N
	if n == 0 {
		n = 9
	}
	crypto, params := Suite(tb, n)
	machines := make(map[types.ProcessID]*wba.Machine)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m := wba.NewMachine(wba.Config{
				Params: params, Crypto: crypto, ID: id,
				Input: types.Value(sc.Input), Predicate: valid.NonBottom(),
				Tag: sc.Tag, QuorumOverride: sc.QuorumOverride,
			})
			machines[id] = m
			return m
		},
		Adversary: attacks.Compile(sc.Genome, protocols.WBA, sc.Tag, 1, 2000),
		MaxTicks:  2000,
		OnSend:    onSend,
	})
	if err != nil {
		tb.Fatal(err)
	}
	out := CoalitionOutcome{Words: res.Report.Honest.Words, Messages: res.Report.Honest.Messages, Ticks: res.Ticks}
	decisions := make([]string, 0, len(res.Honest))
	for _, id := range res.Honest {
		if d, ok := res.Decisions[id]; ok {
			decisions = append(decisions, fmt.Sprintf("p%d:%s", id, d))
		} else {
			decisions = append(decisions, fmt.Sprintf("p%d:-", id))
		}
		if machines[id].RanFallback() {
			out.Fallbacks++
		}
	}
	out.Decisions = strings.Join(decisions, " ")
	return out, res
}

// CommitShape is one engine.RunACSLog call: N, T, F and Inflight are its
// engine.Config, Queues its proposers' commands; a correct call commits
// Committed of them. A shape that shares its suite runs every call on
// one engine.NewCrypto suite, as a service.Core does.
type CommitShape struct {
	Name              string
	N, T, F, Inflight int
	Rounds, Batch     int
	Queues            func() [][]types.Value
	Committed         int
	ShareSuite        bool
}

// CommitShapes are the calls the repo benchmark's write paths reduce to:
// the one-command flush service.Core.Commit issues for a serial put (n =
// 4, one round), the 32-command flush of a burst of inline puts (n = 4,
// one round, every proposer a full batch of 8 — the shape that pays for
// value bytes) and the batched library call of lib-acs-crash1 (n = 9,
// one crashed proposer, four rounds of batch 16, keys derived per call
// as the library call does).
func CommitShapes() []CommitShape {
	return []CommitShape{
		{Name: "n4r1", N: 4, T: 1, Inflight: 1, Rounds: 1, Batch: 8,
			Queues: func() [][]types.Value {
				return [][]types.Value{{types.Value("SET a2V5LTAwMDE i:dmFsdWU")}, nil, nil, nil}
			},
			Committed: 1, ShareSuite: true},
		{Name: "n4b32", N: 4, T: 1, Inflight: 1, Rounds: 1, Batch: 8,
			Queues:    func() [][]types.Value { return BurstQueues(4, 8) },
			Committed: 32, ShareSuite: true},
		{Name: "n9f1", N: 9, F: 1, Rounds: 4, Batch: 16,
			Queues:    func() [][]types.Value { return ACSQueues(9, 4*16) },
			Committed: 8 * 4 * 16},
	}
}

// BurstQueues gives n proposers perProc inline puts each, in the form
// service.Core.Commit hands the log: "SET <key> i:<value>", key and a
// 64-byte value in unpadded URL base64 — about 100 B a command.
func BurstQueues(n, perProc int) [][]types.Value {
	queues := make([][]types.Value, n)
	for i := range queues {
		for j := 0; j < perProc; j++ {
			key := []byte(fmt.Sprintf("key-%04d", i*perProc+j))
			value := make([]byte, 64)
			for k := range value {
				value[k] = byte(i*perProc + j + k)
			}
			queues[i] = append(queues[i], types.Value("SET "+base64.RawURLEncoding.EncodeToString(key)+
				" i:"+base64.RawURLEncoding.EncodeToString(value)))
		}
	}
	return queues
}

// ACSQueues gives n proposers perProc short commands each.
func ACSQueues(n, perProc int) [][]types.Value {
	queues := make([][]types.Value, n)
	for i := range queues {
		for j := 0; j < perProc; j++ {
			queues[i] = append(queues[i], types.Value(fmt.Sprintf("SET k%d-%d p%d", i, j, i)))
		}
	}
	return queues
}
