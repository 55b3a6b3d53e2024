package adversary

import (
	"fmt"
	"sort"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// notePayload is a trivial one-word payload.
type notePayload struct{ n byte }

func (notePayload) Type() string { return "test/note" }
func (notePayload) Words() int   { return 1 }

// countMachine broadcasts once and counts everything it receives.
type countMachine struct {
	params   types.Params
	received int
	decided  bool
	began    types.Tick
}

func (m *countMachine) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.began = now
	return proto.AppendBroadcast(outs, m.params, "", notePayload{n: 1})
}

func (m *countMachine) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	m.received += len(inbox)
	if now >= m.began+3 {
		m.decided = true
	}
	return outs
}

func (m *countMachine) Output() (types.Value, bool) { return types.Value{1}, m.decided }
func (m *countMachine) Done() bool                  { return m.decided }

func env(t *testing.T, n int) (*proto.Crypto, types.Params) {
	t.Helper()
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("adv-test"))
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")), params
}

func TestCrashSchedules(t *testing.T) {
	a := NewCrash(1, 3)
	if len(a.Corruptions()) != 2 {
		t.Fatalf("corruptions: %v", a.Corruptions())
	}
	if !a.Corrupted(1) || !a.Corrupted(3) || a.Corrupted(0) {
		t.Error("Corrupted misreports")
	}
	b := NewCrashAt(map[types.ProcessID]types.Tick{2: 5})
	cs := b.Corruptions()
	if len(cs) != 1 || cs[0].ID != 2 || cs[0].At != 5 {
		t.Errorf("CrashAt schedule: %v", cs)
	}
}

func TestFirstProcesses(t *testing.T) {
	ids := FirstProcesses(3)
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Errorf("FirstProcesses(3) = %v", ids)
	}
	if len(FirstProcesses(0)) != 0 {
		t.Error("FirstProcesses(0) not empty")
	}
}

func TestCrashSet(t *testing.T) {
	if got := fmt.Sprint(CrashSet(3, false)); got != "[p1 p2 p3]" {
		t.Errorf("CrashSet(3, false) = %s, want [p1 p2 p3]", got)
	}
	if got := fmt.Sprint(CrashSet(3, true)); got != "[p0 p1 p2]" {
		t.Errorf("CrashSet(3, true) = %s, want [p0 p1 p2]", got)
	}
	if len(CrashSet(0, false)) != 0 || len(CrashSet(0, true)) != 0 {
		t.Error("CrashSet(0, ·) not empty")
	}
}

func TestForPattern(t *testing.T) {
	if adv := ForPattern("replay", 0, 1)(100); adv != nil {
		t.Errorf("f=0 built %T, want no adversary", adv)
	}
	for _, c := range []struct {
		pattern, want string
	}{
		{"crash", "[{p1 0} {p2 0}]"},
		{"", "[{p1 0} {p2 0}]"},
		{"spam", "[{p1 0} {p2 0}]"},
		{"crash-leader", "[{p0 0} {p1 0}]"},
		{"stagger", "[{p1 1} {p2 2}]"},
		{"replay", "[{p1 0} {p2 0}]"},
	} {
		adv := ForPattern(c.pattern, 2, 1)(100)
		cs := adv.Corruptions()
		sort.Slice(cs, func(i, j int) bool { return cs[i].ID < cs[j].ID })
		if got := fmt.Sprint(cs); got != c.want {
			t.Errorf("%q: corruptions %s, want %s", c.pattern, got, c.want)
		}
		if r, ok := adv.(*Replay); ok != (c.pattern == "replay") || ok && r.Horizon != 50 {
			t.Errorf("%q: built %T, want a replay with horizon 50 only for replay", c.pattern, adv)
		}
	}
}

func TestMimicRunsMachinesFromCorruptIdentities(t *testing.T) {
	crypto, params := env(t, 5)
	mimic := NewMimic(func(id types.ProcessID) proto.Machine {
		return &countMachine{params: params}
	}, 2)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return &countMachine{params: params}
		},
		Adversary: mimic,
		MaxTicks:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The mimicked p2 broadcast like everyone else: honest processes got
	// messages from all 5 identities.
	if res.Report.Byzantine.Messages != 4 {
		t.Errorf("mimic sent %d messages, want 4", res.Report.Byzantine.Messages)
	}
}

func TestReplayDeterministicAndBounded(t *testing.T) {
	crypto, params := env(t, 5)
	run := func() *sim.Result {
		res, err := sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				return &countMachine{params: params}
			},
			Adversary: NewReplay(7, 20, 0),
			MaxTicks:  200,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Report.Byzantine.Messages != b.Report.Byzantine.Messages {
		t.Error("replay not deterministic across runs")
	}
	if a.Report.Byzantine.Messages == 0 {
		t.Error("replay sent nothing")
	}
	if a.TimedOut {
		t.Error("replay kept the run alive past its horizon")
	}
}
