package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv/scenarios"
	"adaptiveba/internal/types"
)

// TestObserversDoNotChangeTheCharge: OnSend and the TraceTo trace only
// observe a run. Under inbox shuffling and a rushing adversary, the
// observed run's metrics.Report equals the unobserved run's, and the
// observers see exactly the charged messages.
func TestObserversDoNotChangeTheCharge(t *testing.T) {
	const n = 24
	run := func(onSend func(types.Tick, sim.Message, bool)) metrics.Report {
		crypto, params := scenarios.Suite(t, n)
		res, err := sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(types.ProcessID) proto.Machine {
				return &pulser{params: params, horizon: 7}
			},
			Adversary:   &scenarios.RushingRelay{IDs: []types.ProcessID{3, 17}},
			MaxTicks:    64,
			ShuffleSeed: 5,
			SizeOf:      func(p proto.Payload) int { return len(p.Type()) },
			OnSend:      onSend,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report
	}
	var trace bytes.Buffer
	var honest int64
	traceTo := sim.TraceTo(&trace)
	bare := run(nil)
	observed := run(func(now types.Tick, m sim.Message, h bool) {
		if h {
			honest++
		}
		traceTo(now, m, h)
	})
	if bare.Honest.Messages == 0 || bare.Byzantine.Messages == 0 || len(bare.ByLayer) < 2 {
		t.Fatalf("vacuous run: %+v", bare)
	}
	if !reflect.DeepEqual(observed, bare) {
		t.Errorf("observers changed the charge:\n observed %+v\n bare     %+v", observed, bare)
	}
	lines := int64(bytes.Count(trace.Bytes(), []byte("\n")))
	if honest != bare.Honest.Messages || lines != bare.Honest.Messages+bare.Byzantine.Messages {
		t.Errorf("OnSend saw %d honest sends and traced %d, charged %d honest of %d",
			honest, lines, bare.Honest.Messages, bare.Honest.Messages+bare.Byzantine.Messages)
	}
}

// pulser alternates heavy and light ticks: at Begin and on even ticks it
// broadcasts, on odd ticks it answers only the first message of its
// inbox. Which message is first depends on the tick's shuffled delivery
// permutation, so a transcript pins that too.
type pulser struct {
	params  types.Params
	horizon types.Tick
	now     types.Tick
}

func (p *pulser) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return proto.AppendBroadcast(outs, p.params, "pulse", scenarios.EchoPayload{})
}

func (p *pulser) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	p.now = now
	if now >= p.horizon || len(inbox) == 0 {
		return outs
	}
	if now%2 == 1 {
		return proto.AppendUnicast(outs, inbox[0].From, "reply", scenarios.EchoPayload{})
	}
	return proto.AppendBroadcast(outs, p.params, "pulse", scenarios.EchoPayload{})
}

func (p *pulser) Output() (types.Value, bool) { return nil, p.now >= p.horizon }
func (p *pulser) Done() bool                  { return p.now >= p.horizon }
