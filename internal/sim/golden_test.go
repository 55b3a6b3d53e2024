package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// The golden traces in testdata/ were recorded from the first serial
// engine. Every engine change — scratch reuse, the shuffle-source
// rewrite, the counting-sort delivery — must reproduce them byte for
// byte: the trace encodes the delivery permutations (the echoer answers
// its inbox in arrival order), the honest traffic order (machines in ID
// order), and the rushing adversary's view (its relays mirror the order
// in which it saw this tick's honest sends).
//
// Regenerate with: go test ./internal/sim -run TestGoldenTraces -update-golden
// (only legitimate when the observable schedule intentionally changes).
var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files")

// echoPayload is a one-word payload; the trace records its type.
type echoPayload struct{}

func (echoPayload) Type() string { return "golden/echo" }
func (echoPayload) Words() int   { return 1 }

// echoer broadcasts at Begin and then, until its horizon, answers every
// inbox message in arrival order — so the trace is a faithful transcript
// of each tick's delivery permutation.
type echoer struct {
	params  types.Params
	horizon types.Tick
	now     types.Tick
}

func (e *echoer) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return proto.AppendBroadcast(outs, e.params, "", echoPayload{})
}

func (e *echoer) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	e.now = now
	if now >= e.horizon {
		return outs
	}
	for _, in := range inbox {
		outs = proto.AppendUnicast(outs, in.From, "", echoPayload{})
	}
	return outs
}

func (e *echoer) Output() (types.Value, bool) { return nil, e.now >= e.horizon }
func (e *echoer) Done() bool                  { return e.now >= e.horizon }

// relayPayload marks adversary relays in the trace.
type relayPayload struct{}

func (relayPayload) Type() string { return "golden/relay" }
func (relayPayload) Words() int   { return 1 }

// rushingRelay exercises the rushing-adversary contract: its sends are a
// function of the ORDER of the honest traffic it just saw (every third
// honest message is answered) and of the ORDER of its observed inboxes,
// so any reordering of either shows up in the golden trace.
type rushingRelay struct {
	silentAdversary
	observed []types.ProcessID // senders seen in corrupted inboxes, in order
}

func (a *rushingRelay) Observe(_ types.Tick, _ types.ProcessID, inbox []proto.Incoming) {
	for _, in := range inbox {
		a.observed = append(a.observed, in.From)
	}
}

func (a *rushingRelay) Act(now types.Tick, honest []Message) []Message {
	if now >= 4 {
		return nil
	}
	from := a.ids[0]
	var msgs []Message
	for i, m := range honest {
		if i%3 == 0 {
			msgs = append(msgs, Message{From: from, To: m.From, Payload: relayPayload{}})
		}
	}
	for i, sender := range a.observed {
		if i%2 == 0 && !a.corrupted(sender) {
			msgs = append(msgs, Message{From: from, To: sender, Payload: relayPayload{}})
		}
	}
	a.observed = a.observed[:0]
	return msgs
}

func (a *rushingRelay) Quiescent(now types.Tick) bool { return now >= 4 }

func (a *rushingRelay) corrupted(id types.ProcessID) bool {
	for _, c := range a.ids {
		if c == id {
			return true
		}
	}
	return false
}

// goldenCase is one recorded engine schedule.
type goldenCase struct {
	name        string
	n           int
	shuffleSeed int64
	adversary   func() Adversary
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "noshuffle", n: 7, shuffleSeed: 0},
		{name: "shuffle-seed7", n: 7, shuffleSeed: 7},
		{name: "shuffle-seed13", n: 9, shuffleSeed: 13},
		{name: "adversary-noshuffle", n: 7, shuffleSeed: 0,
			adversary: func() Adversary { return &rushingRelay{silentAdversary: silentAdversary{ids: []types.ProcessID{5, 6}}} }},
		{name: "adversary-shuffle-seed7", n: 7, shuffleSeed: 7,
			adversary: func() Adversary { return &rushingRelay{silentAdversary: silentAdversary{ids: []types.ProcessID{5, 6}}} }},
		// scale-n64 pins the counting-sort delivery at a larger n, with
		// both adversary ids near the top of the ID range.
		{name: "scale-n64-shuffle-seed11", n: 64, shuffleSeed: 11,
			adversary: func() Adversary {
				return &rushingRelay{silentAdversary: silentAdversary{ids: []types.ProcessID{60, 62}}}
			}},
	}
}

// runGolden executes one golden configuration and returns its trace.
func runGolden(t *testing.T, tc goldenCase) []byte {
	t.Helper()
	crypto, params := testCrypto(t, tc.n)
	var trace bytes.Buffer
	cfg := Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return &echoer{params: params, horizon: 5}
		},
		MaxTicks:    64,
		OnSend:      TraceTo(&trace),
		ShuffleSeed: tc.shuffleSeed,
	}
	if tc.adversary != nil {
		cfg.Adversary = tc.adversary()
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("golden run timed out")
	}
	return trace.Bytes()
}

func TestGoldenTraces(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := runGolden(t, tc)
			path := filepath.Join("testdata", tc.name+".trace")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace diverged from the recorded serial engine:\n%s", diffHint(want, got))
			}
		})
	}
}

// diffHint locates the first differing line for a readable failure.
func diffHint(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}
