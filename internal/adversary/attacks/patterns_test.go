package attacks

import (
	"fmt"
	"sort"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// TestPatternTable pins what each named pattern builds for f = 2 at n = 7
// under a 100-tick budget: its corruption schedule, and the behaviour
// behind it (a tick-0 crash for crash and crash-leader, the two entries
// marked Crash, a replay until the budget's horizon, the phase-spam genome
// on BB and weak BA). f = 0
// builds no adversary, spam refuses more processes than a byte can name,
// and an unknown name is not in the table.
func TestPatternTable(t *testing.T) {
	params, err := types.NewParams(7)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"":             "[{p1 0} {p2 0}]",
		"crash":        "[{p1 0} {p2 0}]",
		"crash-leader": "[{p0 0} {p1 0}]",
		"replay":       "[{p1 0} {p2 0}]",
		"spam":         "[{p1 0} {p2 0}]",
		"stagger":      "[{p1 1} {p2 2}]",
	}
	if len(Patterns)+1 != len(want) {
		t.Fatalf("%d patterns in the table, %d pinned", len(Patterns), len(want)-1)
	}
	for name, schedule := range want {
		p, ok := PatternNamed(name)
		if !ok {
			t.Fatalf("%q is not in the table", name)
		}
		if tick0 := name == "" || name == "crash" || name == "crash-leader"; p.Crash != tick0 {
			t.Errorf("%q: marked Crash %t, want %t", name, p.Crash, tick0)
		}
		for _, kind := range []protocols.Kind{protocols.BB, protocols.WBA, protocols.StrongBA} {
			build, err := p.Build(kind, "tag", 2, 1)
			if err != nil {
				t.Fatalf("%q on %s: %v", name, kind, err)
			}
			adv := build(100)
			adv.Init(sim.Env{Params: params})
			cs := adv.Corruptions()
			sort.Slice(cs, func(i, j int) bool { return cs[i].ID < cs[j].ID })
			if got := fmt.Sprint(cs); got != schedule {
				t.Errorf("%q on %s: corruptions %s, want %s", name, kind, got, schedule)
			}
			_, crash := adv.(*adversary.Crash)
			for _, c := range cs {
				crash = crash && c.At == 0
			}
			r, replay := adv.(*adversary.Replay)
			_, genome := adv.(*genomeAdversary)
			spam := p.Name == "spam" && kind != protocols.StrongBA
			switch {
			case p.Crash && !crash:
				t.Errorf("%q on %s: built %T, corruptions %v, for a tick-0 crash", name, kind, adv, cs)
			case replay != (p.Name == "replay") || replay && r.Horizon != 50:
				t.Errorf("%q on %s: built %T, want a replay with horizon 50 only for replay", name, kind, adv)
			case genome != spam:
				t.Errorf("%q on %s: built %T, want the phase-spam genome only for spam on BB and weak BA", name, kind, adv)
			}
		}
		if build, err := p.Build(protocols.WBA, "tag", 0, 1); err != nil || build(100) != nil {
			t.Errorf("%q at f=0: error %v, want no adversary", name, err)
		}
	}
	spam, _ := PatternNamed("spam")
	if _, err := spam.Build(protocols.BB, "tag", 255, 1); err != nil {
		t.Errorf("spam at f=255: %v", err)
	}
	if _, err := spam.Build(protocols.BB, "tag", 256, 1); err == nil {
		t.Error("spam at f=256 accepted")
	}
	if _, ok := PatternNamed("crash-all"); ok {
		t.Error("an unknown name is in the table")
	}
}
