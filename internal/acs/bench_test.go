package acs

import (
	"fmt"
	"testing"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// runLockstep drives n machines through a full round with direct
// next-tick delivery (no simulator), so tests can keep ticking the
// machines past their decision.
func runLockstep(t testing.TB, machines []*Machine, budget types.Tick) types.Tick {
	t.Helper()
	n := len(machines)
	pending := make([][]proto.Incoming, n)
	route := func(from types.ProcessID, outs []proto.Outgoing) {
		for _, o := range outs {
			pending[o.To] = append(pending[o.To], proto.Incoming{
				From: from, Session: o.Session, Payload: o.Payload,
			})
		}
	}
	for i, m := range machines {
		route(types.ProcessID(i), m.Begin(0, nil))
	}
	for now := types.Tick(1); now <= budget; now++ {
		inboxes := pending
		pending = make([][]proto.Incoming, n)
		for i, m := range machines {
			route(types.ProcessID(i), m.Tick(now, inboxes[i], nil))
		}
		done := true
		for _, m := range machines {
			if !m.Done() {
				done = false
				break
			}
		}
		if done {
			return now
		}
	}
	t.Fatalf("round did not finish within %d ticks", budget)
	return 0
}

// TestACSAllocCeiling is the CI allocation guard for the ACS hot path
// at n = 33: once a round has quiesced (every broadcast retired, every
// vote decided), further ticks — including ticks that deliver stale
// traffic to retired broadcast sessions — must not allocate. This pins
// the Mux's borrowed arena and the machine's own tick path; a regression
// that allocates per live child costs ≥ 2n per tick here, and the ceiling
// is the measured value, so one that allocates once per tick fails too.
func TestACSAllocCeiling(t *testing.T) {
	const n = 33
	crypto, params := setup(t, n)
	machines := make([]*Machine, n)
	for i := range machines {
		machines[i] = NewMachine(Config{
			Params: params, Crypto: crypto, ID: types.ProcessID(i),
			Input: batchFor(types.ProcessID(i), 4), Tag: "t",
		})
	}
	now := runLockstep(t, machines, MaxTicks(params)+4)
	for _, m := range machines {
		if m.Failed() != nil {
			t.Fatal(m.Failed())
		}
	}
	// Stale broadcast-stage traffic addressed to a retired session: the
	// late path must count it without allocating.
	stale := []proto.Incoming{
		{From: 1, Session: "b0/wba", Payload: nil},
		{From: 2, Session: "b5", Payload: nil},
	}
	m := machines[0]
	frames := make([]proto.Incoming, len(stale))
	allocs := testing.AllocsPerRun(100, func() {
		now++
		copy(frames, stale) // routing strips prefixes in place
		m.Tick(now, frames, nil)
	})
	// Measured 0; under the race detector sync.Pool drops a quarter of its
	// Puts, so the borrowed routing arena is re-made now and then (1, as AllocsPerRun truncates).
	ceiling := 0.0
	if testenv.Race() {
		ceiling = 1
	}
	t.Logf("steady-state ACS tick: %.1f allocs/op (ceiling %.1f, race %t)", allocs, ceiling, testenv.Race())
	if allocs > ceiling {
		t.Errorf("steady-state ACS tick allocates %.1f/op, ceiling %.1f", allocs, ceiling)
	}
	if m.Late() == 0 {
		t.Error("stale traffic to retired broadcast sessions was not counted late")
	}
}

// BenchmarkACSRound measures one full ACS round end to end over the
// deterministic simulator: n proposers, `batch` requests each, so one
// round commits n×batch requests.
func BenchmarkACSRound(b *testing.B) {
	for _, n := range []int{9, 17} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("n=%d/batch=%d", n, batch), func(b *testing.B) {
				crypto, params := setup(b, n)
				budget := MaxTicks(params) + 4
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(sim.Config{
						Params: params,
						Crypto: crypto,
						Factory: func(id types.ProcessID) proto.Machine {
							return NewMachine(Config{
								Params: params, Crypto: crypto, ID: id,
								Input: batchFor(id, batch), Tag: "t",
							})
						},
						MaxTicks: budget,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.TimedOut {
						b.Fatal("timed out")
					}
				}
				b.ReportMetric(float64(n*batch), "reqs/round")
			})
		}
	}
}
