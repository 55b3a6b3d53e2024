package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// pulser alternates heavy and light ticks: at Begin and on even ticks it
// broadcasts (about n² messages in flight — above stepFanOutMin for the n
// used below), on odd ticks it answers only the first message of its
// inbox (at most n in flight — below it). Which message is first depends
// on the tick's shuffled delivery permutation, so the transcript pins
// that too.
type pulser struct {
	params  types.Params
	horizon types.Tick
	now     types.Tick
}

func (p *pulser) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return proto.AppendBroadcast(outs, p.params, "pulse", echoPayload{})
}

func (p *pulser) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	p.now = now
	if now >= p.horizon || len(inbox) == 0 {
		return outs
	}
	if now%2 == 1 {
		return proto.AppendUnicast(outs, inbox[0].From, "reply", echoPayload{})
	}
	return proto.AppendBroadcast(outs, p.params, "pulse", echoPayload{})
}

func (p *pulser) Output() (types.Value, bool) { return nil, p.now >= p.horizon }
func (p *pulser) Done() bool                  { return p.now >= p.horizon }

// harness.TestTickWorkersDeterminism and CI's race smokes cover the
// fanned-out step with real protocol machines and crypto by running
// shapes whose heaviest ticks deliver 256 messages or more; a gate raised
// past that would quietly turn them into serial-against-serial
// comparisons, so it fails to compile here instead.
var _ [256 - stepFanOutMin]struct{}

// TestStepGateDeterminism runs one schedule whose ticks fall on both
// sides of stepFanOutMin — so a multi-worker run switches between the
// inline and the fanned-out step from tick to tick — under inbox
// shuffling and a rushing adversary, and requires traffic order, metrics
// and trace to be byte-identical at Workers 1, 2 and 8.
func TestStepGateDeterminism(t *testing.T) {
	const n = 24
	type outcome struct {
		traffic, trace []byte
		res            *Result
		perTick        map[types.Tick]int
	}
	run := func(workers int) outcome {
		crypto, params := testCrypto(t, n)
		var o outcome
		var traffic, trace bytes.Buffer
		traceTo := TraceTo(&trace)
		o.perTick = make(map[types.Tick]int)
		res, err := Run(Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				return &pulser{params: params, horizon: 7}
			},
			Adversary:   &rushingRelay{silentAdversary: silentAdversary{ids: []types.ProcessID{3, 17}}},
			MaxTicks:    64,
			ShuffleSeed: 5,
			Workers:     workers,
			OnSend: func(now types.Tick, m Message, honest bool) {
				traceTo(now, m, honest)
				o.perTick[now]++
				fmt.Fprintf(&traffic, "%d %v>%v %s %t\n", now, m.From, m.To, m.Session, honest)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatal("run timed out")
		}
		o.traffic, o.trace, o.res = traffic.Bytes(), trace.Bytes(), res
		return o
	}

	serial := run(1)
	// OnSend skips self-addressed sends, so these undercount e.pending by
	// at most n per tick; the margins below absorb that.
	var light, heavy int
	for _, sent := range serial.perTick {
		if sent+n < stepFanOutMin {
			light++
		}
		if sent >= stepFanOutMin {
			heavy++
		}
	}
	t.Logf("sends per tick: %v (stepFanOutMin %d)", serial.perTick, stepFanOutMin)
	if light < 2 || heavy < 2 {
		t.Fatalf("schedule has %d ticks below and %d at or above stepFanOutMin=%d; want both (per tick: %v)",
			light, heavy, stepFanOutMin, serial.perTick)
	}

	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !bytes.Equal(got.traffic, serial.traffic) {
			t.Errorf("workers=%d: traffic order diverged from serial:\n%s", workers, diffHint(serial.traffic, got.traffic))
		}
		if !bytes.Equal(got.trace, serial.trace) {
			t.Errorf("workers=%d: trace diverged from serial:\n%s", workers, diffHint(serial.trace, got.trace))
		}
		if !reflect.DeepEqual(got.res.Report, serial.res.Report) {
			t.Errorf("workers=%d: metrics diverged from serial:\n%+v\n%+v", workers, got.res.Report, serial.res.Report)
		}
		if got.res.Ticks != serial.res.Ticks {
			t.Errorf("workers=%d: %d ticks, serial %d", workers, got.res.Ticks, serial.res.Ticks)
		}
	}
}
