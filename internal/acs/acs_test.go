package acs

import (
	"fmt"
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

func run(t testing.TB, n, batch, workers int, adv sim.Adversary) (*sim.Result, map[types.ProcessID]*Machine) {
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
		Workers:   workers,
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
		res, machines := run(t, n, batch, 1, nil)
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
	res, machines := run(t, n, batch, 1, adversary.NewCrash(crashed...))
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

// TestACSDeterministicAcrossWorkers pins the CI determinism contract:
// the decided result bytes are identical at every per-tick worker
// count.
func TestACSDeterministicAcrossWorkers(t *testing.T) {
	const n, batch = 9, 2
	var base types.Value
	for _, workers := range []int{1, 2, 8} {
		res, machines := run(t, n, batch, workers, adversary.NewCrash(1))
		checkHonestClean(t, res, machines)
		v, ok := res.Agreement()
		if !ok {
			t.Fatalf("workers=%d: honest decisions disagree", workers)
		}
		if workers == 1 {
			base = v
			continue
		}
		if !v.Equal(base) {
			t.Errorf("workers=%d: decision differs from serial run", workers)
		}
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
