package acs

import (
	"fmt"
	"slices"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

func setup(t testing.TB, n int) (*proto.Crypto, types.Params) {
	t.Helper()
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("acs-test"))
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")), params
}

// batchFor builds proposer id's batch: `size` synthetic SET commands.
func batchFor(id types.ProcessID, size int) types.Value {
	if size == 0 {
		return nil
	}
	cmds := make([]types.Value, 0, size)
	for j := 0; j < size; j++ {
		cmds = append(cmds, types.Value(fmt.Sprintf("SET p%d-%d v%d", id, j, j)))
	}
	return EncodeBatch(cmds)
}

func run(t testing.TB, n, batch int, adv sim.Adversary) (*sim.Result, map[types.ProcessID]*Machine) {
	t.Helper()
	crypto, params := setup(t, n)
	machines := make(map[types.ProcessID]*Machine)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m := NewMachine(Config{
				Params: params,
				Crypto: crypto,
				ID:     id,
				Input:  batchFor(id, batch),
				Tag:    "t",
			})
			machines[id] = m
			return m
		},
		Adversary: adv,
		MaxTicks:  MaxTicks(params) + 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, machines
}

func checkHonestClean(t *testing.T, res *sim.Result, machines map[types.ProcessID]*Machine) {
	t.Helper()
	honest := make(map[types.ProcessID]bool, len(res.Honest))
	for _, id := range res.Honest {
		honest[id] = true
	}
	for id, m := range machines {
		if honest[id] && m.Failed() != nil {
			t.Fatalf("machine %v: %v", id, m.Failed())
		}
	}
}

func TestACSFailureFree(t *testing.T) {
	for _, n := range []int{5, 9} {
		const batch = 4
		res, machines := run(t, n, batch, nil)
		checkHonestClean(t, res, machines)
		if res.TimedOut {
			t.Fatalf("n=%d: timed out after %d ticks", n, res.Ticks)
		}
		if !res.AllDecided() {
			t.Fatalf("n=%d: not all decided", n)
		}
		v, ok := res.Agreement()
		if !ok {
			t.Fatalf("n=%d: honest decisions disagree", n)
		}
		result, err := DecodeResult(v)
		if err != nil {
			t.Fatalf("n=%d: decode result: %v", n, err)
		}
		if got := result.Committed.Count(); got != n {
			t.Errorf("n=%d: committed %d proposers, want all %d", n, got, n)
		}
		if got, want := result.Requests(), n*batch; got != want {
			t.Errorf("n=%d: committed %d requests, want %d", n, got, want)
		}
		if len(result.Batches) != n {
			t.Errorf("n=%d: %d batches, want %d", n, len(result.Batches), n)
		}
	}
}

// TestACSCrashedProposers drives a round with crashed proposers: the
// committed subset must exclude exactly the crashed senders and retain
// all ≥ n−t honest ones, and every honest process must decide the same
// result bytes.
func TestACSCrashedProposers(t *testing.T) {
	const n, batch = 7, 3
	crashed := []types.ProcessID{1, 2, 3} // t = 3 crashes
	res, machines := run(t, n, batch, adversary.NewCrash(crashed...))
	checkHonestClean(t, res, machines)
	if res.TimedOut {
		t.Fatalf("timed out after %d ticks", res.Ticks)
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("honest decisions disagree")
	}
	result, err := DecodeResult(v)
	if err != nil {
		t.Fatal(err)
	}
	params, _ := types.NewParams(n)
	if got, min := result.Committed.Count(), params.N-params.T; got < min {
		t.Errorf("committed subset %d < n-t = %d", got, min)
	}
	for _, id := range crashed {
		if result.Committed.Has(id) {
			t.Errorf("crashed proposer %v committed", id)
		}
	}
	for _, id := range res.Honest {
		if !result.Committed.Has(id) {
			t.Errorf("honest proposer %v not committed", id)
		}
	}
	if got, want := result.Requests(), (n-len(crashed))*batch; got != want {
		t.Errorf("committed %d requests, want %d", got, want)
	}
}

// TestACSEmptyBatch checks that a proposer with nothing to propose still
// wins its vote (empty batch, zero requests) instead of reading as
// faulty.
func TestACSEmptyBatch(t *testing.T) {
	const n = 5
	crypto, params := setup(t, n)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			var input types.Value // proposer 0 proposes nothing
			if id != 0 {
				input = batchFor(id, 2)
			}
			return NewMachine(Config{Params: params, Crypto: crypto, ID: id, Input: input, Tag: "t"})
		},
		MaxTicks: MaxTicks(params) + 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("honest decisions disagree")
	}
	result, err := DecodeResult(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := result.Committed.Count(); got != n {
		t.Errorf("committed %d proposers, want all %d (empty batch must still win)", got, n)
	}
	if got, want := result.Requests(), (n-1)*2; got != want {
		t.Errorf("committed %d requests, want %d", got, want)
	}
}

// TestACSLateBroadcastTraffic replays stale broadcast-stage traffic past
// the vote boundary: the round must still commit ≥ n−t batches, and the
// replayed messages must surface in Late() rather than vanish.
func TestACSLateBroadcastTraffic(t *testing.T) {
	const n, batch = 7, 2
	crypto, params := setup(t, n)
	probe := NewMachine(Config{Params: params, Crypto: crypto, ID: 0, Tag: "t"})
	horizon := probe.VoteBoundary() + 8 // replay well past BB retirement
	machines := make(map[types.ProcessID]*Machine)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m := NewMachine(Config{Params: params, Crypto: crypto, ID: id, Input: batchFor(id, batch), Tag: "t"})
			machines[id] = m
			return m
		},
		Adversary: adversary.NewReplay(42, horizon, 1),
		MaxTicks:  MaxTicks(params) + 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("timed out after %d ticks", res.Ticks)
	}
	v, ok := res.Agreement()
	if !ok {
		t.Fatal("honest decisions disagree")
	}
	result, err := DecodeResult(v)
	if err != nil {
		t.Fatal(err)
	}
	if got, min := result.Committed.Count(), params.N-params.T; got < min {
		t.Errorf("committed subset %d < n-t = %d", got, min)
	}
	var late int64
	for _, id := range res.Honest {
		late += machines[id].Late()
	}
	if late == 0 {
		t.Error("replayed broadcast traffic past the vote boundary was not counted late")
	}
}

// TestACSBoundarySubsetIsTheVotedSubset is the differential half of the
// vote-free log: on every honest process, the proposers whose broadcast
// delivered a batch by the vote boundary are exactly the voted subset,
// and that set is the same on every honest process. So the votes decide
// nothing the broadcasts had not already decided. It runs every crash
// set up to t, with and without the leader of the first vote, and a
// replay of stale broadcast traffic past the boundary at f = t.
func TestACSBoundarySubsetIsTheVotedSubset(t *testing.T) {
	for _, n := range []int{5, 7, 9} {
		params, err := types.NewParams(n)
		if err != nil {
			t.Fatal(err)
		}
		type scenario struct {
			name string
			adv  sim.Adversary
		}
		var scenarios []scenario
		for f := 0; f <= params.T; f++ {
			for _, leader := range []bool{false, true} {
				scenarios = append(scenarios, scenario{fmt.Sprintf("crash f=%d leader=%t", f, leader), adversary.NewCrash(adversary.CrashSet(f, leader)...)})
			}
		}
		horizon := voteBoundary(params) + 8 // replay well past BB retirement
		scenarios = append(scenarios, scenario{fmt.Sprintf("replay f=%d", params.T), adversary.NewReplay(42, horizon, adversary.CrashSet(params.T, false)...)})
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("n=%d/%s", n, sc.name), func(t *testing.T) {
				res, machines := run(t, n, 2, sc.adv)
				checkHonestClean(t, res, machines)
				var first *types.BitSet
				for _, id := range res.Honest {
					m := machines[id]
					if m.Committed() == nil {
						t.Fatalf("p%d did not decide", id)
					}
					delivered := types.NewBitSet(n)
					for i, b := range m.batches {
						if b != nil {
							delivered.Add(types.ProcessID(i))
						}
					}
					if got, want := delivered.Members(), m.Committed().Members(); !slices.Equal(got, want) {
						t.Errorf("p%d: delivered at the boundary %v, voted %v", id, got, want)
					}
					if first == nil {
						first = delivered
					} else if got, want := delivered.Members(), first.Members(); !slices.Equal(got, want) {
						t.Errorf("p%d: delivered at the boundary %v, p%d delivered %v", id, got, res.Honest[0], want)
					}
				}
			})
		}
	}
}
