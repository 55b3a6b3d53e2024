package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// valuePayload is a one-word payload carrying a value.
type valuePayload struct {
	v types.Value
}

func (p valuePayload) Type() string { return "value" }
func (p valuePayload) Words() int   { return 1 }

// floodMax broadcasts its input at tick 0 and, two ticks later, decides
// the maximum value observed (including its own). A minimal correct
// synchronous protocol for exercising the engine.
type floodMax struct {
	params  types.Params
	input   types.Value
	best    types.Value
	decided bool
	began   types.Tick
}

func newFloodMax(params types.Params, input types.Value) *floodMax {
	return &floodMax{params: params, input: input, best: input}
}

func (m *floodMax) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	m.began = now
	return proto.AppendBroadcast(outs, m.params, "", valuePayload{v: m.input})
}

func (m *floodMax) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	for _, in := range inbox {
		if p, ok := in.Payload.(valuePayload); ok {
			if bytes.Compare(p.v, m.best) > 0 {
				m.best = p.v
			}
		}
	}
	if now >= m.began+2 {
		m.decided = true
	}
	return outs
}

func (m *floodMax) Output() (types.Value, bool) { return m.best, m.decided }
func (m *floodMax) Done() bool                  { return m.decided }

func testCrypto(t *testing.T, n int) (*proto.Crypto, types.Params) {
	t.Helper()
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("sim-test"))
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("dealer")), params
}

func TestRunFailureFree(t *testing.T) {
	crypto, params := testCrypto(t, 5)
	res, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return newFloodMax(params, types.Value{byte(id)})
		},
		MaxTicks: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("run timed out")
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("disagreement")
	}
	if !v.Equal(types.Value{4}) {
		t.Errorf("decided %v, want max id 4", v)
	}
	if res.F() != 0 || len(res.Honest) != 5 {
		t.Errorf("F=%d honest=%d", res.F(), len(res.Honest))
	}
}

func TestMetricsExcludeSelfDelivery(t *testing.T) {
	crypto, params := testCrypto(t, 5)
	res, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return newFloodMax(params, types.Value{byte(id)})
		},
		MaxTicks: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each of 5 processes broadcasts to 5 recipients, 4 of them remote.
	if got := res.Report.Honest.Messages; got != 20 {
		t.Errorf("messages = %d, want 20", got)
	}
	if got := res.Report.Honest.Words; got != 20 {
		t.Errorf("words = %d, want 20", got)
	}
}

// silentAdversary corrupts processes and never sends anything (crash from
// the start).
type silentAdversary struct {
	ids []types.ProcessID
	env Env
}

func (a *silentAdversary) Init(env Env) { a.env = env }
func (a *silentAdversary) Corruptions() []Corruption {
	cs := make([]Corruption, len(a.ids))
	for i, id := range a.ids {
		cs[i] = Corruption{ID: id}
	}
	return cs
}
func (a *silentAdversary) Observe(types.Tick, types.ProcessID, []proto.Incoming) {}
func (a *silentAdversary) Act(types.Tick, []Message) []Message                   { return nil }
func (a *silentAdversary) Quiescent(types.Tick) bool                             { return true }

func TestRunWithCrashedProcesses(t *testing.T) {
	crypto, params := testCrypto(t, 5)
	res, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return newFloodMax(params, types.Value{byte(id)})
		},
		Adversary: &silentAdversary{ids: []types.ProcessID{4, 2}},
		MaxTicks:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.F() != 2 {
		t.Fatalf("F = %d", res.F())
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value{3}) {
		// p4 crashed, so the max among alive is 3.
		t.Errorf("agreement %v %v", v, ok)
	}
	if len(res.Honest) != 3 || res.Honest[0] != 0 || res.Honest[2] != 3 {
		t.Errorf("honest = %v", res.Honest)
	}
	if res.Corrupted[0] != 2 || res.Corrupted[1] != 4 {
		t.Errorf("corrupted = %v", res.Corrupted)
	}
}

func TestTooManyCorruptionsRejected(t *testing.T) {
	crypto, params := testCrypto(t, 5) // t = 2
	_, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return newFloodMax(params, types.Value{byte(id)})
		},
		Adversary: &silentAdversary{ids: []types.ProcessID{0, 1, 2}},
	})
	if !errors.Is(err, ErrCorruption) {
		t.Errorf("err = %v", err)
	}
}

func TestDuplicateCorruptionRejected(t *testing.T) {
	crypto, params := testCrypto(t, 5)
	_, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return newFloodMax(params, types.Value{byte(id)})
		},
		Adversary: &silentAdversary{ids: []types.ProcessID{1, 1}},
	})
	if !errors.Is(err, ErrCorruption) {
		t.Errorf("err = %v", err)
	}
}

// forger tries to send from an honest identity.
type forger struct {
	silentAdversary
	sent bool
}

func (a *forger) Corruptions() []Corruption { return []Corruption{{ID: 0}} }
func (a *forger) Act(now types.Tick, _ []Message) []Message {
	if a.sent {
		return nil
	}
	a.sent = true
	return []Message{{From: 1, To: 2, Payload: valuePayload{v: types.Value{9}}}}
}

func TestForgeryRejected(t *testing.T) {
	crypto, params := testCrypto(t, 5)
	_, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return newFloodMax(params, types.Value{byte(id)})
		},
		Adversary: &forger{},
	})
	if !errors.Is(err, ErrForgery) {
		t.Errorf("err = %v", err)
	}
}

// injector sends a high value from its corrupted identity: honest
// processes should incorporate it (it is a legal protocol message).
type injector struct {
	silentAdversary
	sent bool
}

func (a *injector) Corruptions() []Corruption { return []Corruption{{ID: 0}} }
func (a *injector) Act(now types.Tick, _ []Message) []Message {
	if a.sent {
		return nil
	}
	a.sent = true
	var msgs []Message
	for i := 1; i < a.env.Params.N; i++ {
		msgs = append(msgs, Message{From: 0, To: types.ProcessID(i), Payload: valuePayload{v: types.Value{99}}})
	}
	return msgs
}

func TestAdversaryInjection(t *testing.T) {
	crypto, params := testCrypto(t, 5)
	res, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return newFloodMax(params, types.Value{byte(id)})
		},
		Adversary: &injector{},
		MaxTicks:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value{99}) {
		t.Errorf("agreement = %v, %v", v, ok)
	}
	// Byzantine words recorded separately, not in the honest total.
	if res.Report.Byzantine.Messages != 4 {
		t.Errorf("byzantine messages = %d", res.Report.Byzantine.Messages)
	}
}

// lateCorruptionAdv corrupts p0 at tick 1, after p0 already broadcast.
type lateCorruptionAdv struct {
	silentAdversary
}

func (a *lateCorruptionAdv) Corruptions() []Corruption {
	return []Corruption{{ID: 0, At: 1}}
}

func TestAdaptiveCorruptionMidRun(t *testing.T) {
	crypto, params := testCrypto(t, 5)
	res, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return newFloodMax(params, types.Value{byte(id)})
		},
		Adversary: &lateCorruptionAdv{},
		MaxTicks:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.F() != 1 {
		t.Fatalf("F = %d", res.F())
	}
	// p0's tick-0 broadcast was already out; honest processes still see 4
	// as the max, and p0 is excluded from the honest set.
	v, ok := res.Agreement()
	if !ok || !v.Equal(types.Value{4}) {
		t.Errorf("agreement = %v, %v", v, ok)
	}
	for _, id := range res.Honest {
		if id == 0 {
			t.Error("corrupted process listed honest")
		}
	}
}

func TestTimeout(t *testing.T) {
	crypto, params := testCrypto(t, 3)
	// A machine that never finishes.
	res, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return &neverDone{params: params}
		},
		MaxTicks: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("expected timeout")
	}
	if res.Ticks != 11 {
		t.Errorf("ticks = %d", res.Ticks)
	}
}

type neverDone struct {
	params types.Params
}

func (m *neverDone) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing { return outs }
func (m *neverDone) Tick(_ types.Tick, _ []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	return outs
}
func (m *neverDone) Output() (types.Value, bool) { return nil, false }
func (m *neverDone) Done() bool                  { return false }

func TestConfigValidation(t *testing.T) {
	crypto, params := testCrypto(t, 3)
	if _, err := Run(Config{Params: params, Crypto: crypto}); !errors.Is(err, ErrConfig) {
		t.Errorf("nil factory: %v", err)
	}
	if _, err := Run(Config{Params: params, Factory: func(types.ProcessID) proto.Machine { return nil }}); !errors.Is(err, ErrConfig) {
		t.Errorf("nil crypto: %v", err)
	}
	if _, err := Run(Config{Params: types.Params{N: 1}, Crypto: crypto, Factory: func(types.ProcessID) proto.Machine { return nil }}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad params: %v", err)
	}
}

func TestTrace(t *testing.T) {
	crypto, params := testCrypto(t, 3)
	var buf bytes.Buffer
	_, err := Run(Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return newFloodMax(params, types.Value{byte(id)})
		},
		MaxTicks: 100,
		OnSend:   TraceTo(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p0->p1") {
		t.Errorf("trace missing sends:\n%s", buf.String())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		crypto, params := testCrypto(t, 7)
		res, err := Run(Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				return newFloodMax(params, types.Value{byte(id)})
			},
			Adversary: &injector{},
			MaxTicks:  100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Ticks != b.Ticks || a.Report.Honest.Words != b.Report.Honest.Words {
		t.Errorf("non-deterministic runs: %v vs %v", a.Report, b.Report)
	}
}
