package scenarios

import (
	"flag"
	"os"
	"strings"
	"testing"

	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/equiv.txt from the runs")

// TestEquivalence is the proof that nothing moved: it recomputes every
// scenario's line at GOMAXPROCS 1 and requires testdata/equiv.txt's, and
// outside -short the same line again at GOMAXPROCS 8. -update rewrites
// the file from the GOMAXPROCS 1 runs, and only if every run did what
// its scenario expects.
func TestEquivalence(t *testing.T) {
	committed := Committed()
	corpus := Corpus()
	got := make(map[string]string, len(corpus))
	Each(t, corpus, func(t *testing.T, sc Scenario) {
		testenv.Procs(t, 1)
		line := sc.Line(t)
		got[sc.Name] = line
		if !testing.Short() {
			testenv.Procs(t, 8)
			if again := sc.Line(t); again != line {
				t.Errorf("GOMAXPROCS 8 moved the line:\n   8: %s\n   1: %s", again, line)
			}
		}
		if !*update && line != committed[sc.Name] {
			t.Errorf("line moved:\n got: %s\nwant: %s", line, committed[sc.Name])
		}
	})
	lines := make([]string, 0, len(corpus))
	for _, sc := range corpus {
		line, ok := got[sc.Name]
		if !ok {
			line, ok = committed[sc.Name] // a scenario -run left out keeps its line
		}
		if ok {
			lines = append(lines, line)
		}
	}
	file := strings.Join(lines, "\n") + "\n"
	switch {
	case *update && !t.Failed():
		if err := os.WriteFile("testdata/equiv.txt", []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
	case !*update && file != equiv:
		t.Errorf("testdata/equiv.txt has %d lines, the corpus %d: a line without a scenario, or out of order (rewrite it with -update)",
			len(committed), len(corpus))
	}
}

// TestLineHasTeeth: a line moves when one send moves. Swapping two sends
// of one tick, renaming one session segment or adding a word to one
// message moves the honest hash; changing one Byzantine send moves the
// Byzantine hash and nothing else.
func TestLineHasTeeth(t *testing.T) {
	propose := func(v string) wba.Propose { return wba.Propose{Phase: 1, V: types.Value(v)} }
	base := []struct {
		honest bool
		m      sim.Message
	}{
		{true, sim.Message{From: 0, To: 1, Session: "s0/wba", Payload: propose("a")}},
		{true, sim.Message{From: 0, To: 2, Session: "s0/wba", Payload: propose("a")}},
		{true, sim.Message{From: 1, To: 2, Session: "s0/wba", Payload: EchoPayload{}}},
		{false, sim.Message{From: 3, To: 0, Session: "s0/wba", Payload: propose("b")}},
	}
	line := func(edit func(i int, honest bool, m sim.Message) sim.Message) []string {
		sc := Scenario{Name: "teeth", run: func(_ testing.TB, onSend observer) outcome {
			for i, s := range base {
				onSend(2, edit(i, s.honest, s.m), s.honest)
			}
			return outcome{out: "p0=v", sends: true, words: 4, ticks: 3, steps: 5}
		}}
		return strings.Fields(sc.Line(t))
	}
	same := func(_ int, _ bool, m sim.Message) sim.Message { return m }
	want := line(same)
	for _, tc := range []struct {
		name  string
		edit  func(i int, honest bool, m sim.Message) sim.Message
		moved int // field of the line that must move: 1 honest, 2 byz
	}{
		{"swap two sends of a tick", func(i int, _ bool, m sim.Message) sim.Message {
			if i < 2 {
				m = base[1-i].m
			}
			return m
		}, 1},
		{"rename a session segment", func(i int, _ bool, m sim.Message) sim.Message {
			if i == 1 {
				m.Session = "s0/wbb"
			}
			return m
		}, 1},
		{"one more word on one message", func(i int, _ bool, m sim.Message) sim.Message {
			if i == 2 {
				m.Payload = heavyEcho{}
			}
			return m
		}, 1},
		{"change a Byzantine send", func(_ int, honest bool, m sim.Message) sim.Message {
			if !honest {
				m.Payload = propose("c")
			}
			return m
		}, 2},
	} {
		got := line(tc.edit)
		for f := range want {
			if moved := got[f] != want[f]; moved != (f == tc.moved) {
				t.Errorf("%s: field %d (%s) moved %t", tc.name, f, want[f], moved)
			}
		}
	}
}

// heavyEcho is an EchoPayload that weighs two words.
type heavyEcho struct{ EchoPayload }

func (heavyEcho) Words() int { return 2 }
