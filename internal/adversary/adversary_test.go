package adversary

import (
	"fmt"
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

// TestFirstProcesses: the leader form of CrashSet is the ids 0..f-1, the
// first f rotating leaders, for every f.
func TestFirstProcesses(t *testing.T) {
	ids := CrashSet(3, true)
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Errorf("CrashSet(3, true) = %v", ids)
	}
	if len(CrashSet(0, true)) != 0 {
		t.Error("CrashSet(0, true) not empty")
	}
	for f := 1; f <= 16; f++ {
		for i, id := range CrashSet(f, true) {
			if id != types.ProcessID(i) {
				t.Fatalf("CrashSet(%d, true)[%d] = %v, want p%d", f, i, id, i)
			}
		}
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

// TestMimicPuppetsActAtSilentTicks: the honest processes sleep until
// mail arrives and nothing is in flight, which lets a run skip ticks;
// the Mimic reports itself quiescent, yet its puppet acts at tick 5, and
// the run must not skip that tick (Mimic.Wake).
func TestMimicPuppetsActAtSilentTicks(t *testing.T) {
	crypto, params := env(t, 5)
	honest := make(map[types.ProcessID]*inboxWaiter)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			honest[id] = &inboxWaiter{}
			return honest[id]
		},
		Adversary: NewMimic(func(types.ProcessID) proto.Machine { return &alarm{params: params, at: 5} }, 4),
		MaxTicks:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || res.Ticks != 6 {
		t.Fatalf("timed out %t at tick %d, want the run to end at tick 6", res.TimedOut, res.Ticks)
	}
	for id, m := range honest {
		if m.received != 1 {
			t.Errorf("p%d received %d messages, want the puppet's one", id, m.received)
		}
	}
}

// inboxWaiter sends nothing and is done once it has mail; only mail
// wakes it.
type inboxWaiter struct{ received int }

func (m *inboxWaiter) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing { return outs }
func (m *inboxWaiter) Tick(_ types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	m.received += len(inbox)
	return outs
}
func (m *inboxWaiter) Wake() types.Tick            { return proto.Never }
func (m *inboxWaiter) Output() (types.Value, bool) { return nil, m.received > 0 }
func (m *inboxWaiter) Done() bool                  { return m.received > 0 }

// alarm broadcasts once, at tick at; it is stepped at every tick.
type alarm struct {
	params types.Params
	at     types.Tick
}

func (m *alarm) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing { return outs }
func (m *alarm) Tick(now types.Tick, _ []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	if now == m.at {
		return proto.AppendBroadcast(outs, m.params, "", notePayload{n: 2})
	}
	return outs
}
func (m *alarm) Output() (types.Value, bool) { return nil, false }
func (m *alarm) Done() bool                  { return false }

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
