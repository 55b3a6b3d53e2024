package transport

import (
	"testing"
	"time"

	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// Chaos tests: faults are injected on the links, by a seeded proxy on
// every peer link of the mesh (testenv.Faults), never inside a node. The
// schedules below are chosen so that drops and delays demonstrably occur,
// and the run must stay inside the protocols' recovery envelope: a chaos
// run decides exactly what the fault-free baseline decides. The per-run
// wall clock is real loopback TCP; ticks are kept generous so that delays
// under MaxDelay ≤ tick/4 stay within the δ-bound the tick loop assumes.

// runBaselineAndChaos runs one fault-free cluster and one cluster whose
// peer links all go through faults' proxies, with identical protocol
// inputs, and asserts that the decisions match. Only message frames
// follow the schedule: the hello and ready frames of the start barrier
// pass untouched.
func runBaselineAndChaos(t *testing.T, protocol string, faults *testenv.Faults) {
	t.Helper()
	crypto := mustSetup(t, 5)
	faults.Kinds = []byte{frameMsg}
	faults.N = crypto.Params.N
	opts := ClusterOpts{
		Node:    Config{Params: crypto.Params, Crypto: crypto, TickInterval: faults.Tick},
		Machine: protocolMachines(crypto, protocol),
	}
	base, err := RunCluster(clusterCtx(t), opts)
	if err != nil {
		t.Fatalf("baseline cluster: %v", err)
	}
	opts.Link = func(from, to types.ProcessID, addr string) string {
		return faults.Link(t, int(from), int(to), addr)
	}
	got, err := RunCluster(clusterCtx(t), opts)
	if err != nil {
		t.Fatalf("chaos cluster: %v", err)
	}
	for i := range base.Decisions {
		if string(got.Decisions[i]) != string(base.Decisions[i]) {
			t.Fatalf("process %d: chaos decided %q, baseline %q",
				i, got.Decisions[i], base.Decisions[i])
		}
	}
}

// TestChaosWBADecidesLikeBaseline hits the WBA cluster with the full
// schedule — loss, jitter, and a flapping peer. WBA is the recovery
// workhorse: its help round and fallback certificate re-supply
// receivers that chaos starved of frames.
func TestChaosWBADecidesLikeBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster in -short mode")
	}
	testenv.NoLeaks(t)
	const tick = 40 * time.Millisecond
	faults := &testenv.Faults{
		Seed:      42,
		Drop:      0.05,
		Delay:     0.20,
		MaxDelay:  tick / 4,
		Tick:      tick,
		FlapEvery: 7,
	}
	runBaselineAndChaos(t, "wba", faults)
	drops, delays := faults.Dropped.Load(), faults.Delayed.Load()
	if drops == 0 || delays == 0 {
		t.Fatalf("chaos schedule injected too little (drops=%d delays=%d) — test is vacuous", drops, delays)
	}
	t.Logf("chaos injected drops=%d delays=%d; decisions match baseline", drops, delays)
}

// TestChaosBBJitterDecidesLikeBaseline runs the BB broadcast under
// delay-only chaos (no loss): Dolev–Strong vetting has no
// retransmission, so loss is out of its recovery envelope, but
// sub-tick jitter must be absorbed by the δ-bound slack.
func TestChaosBBJitterDecidesLikeBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster in -short mode")
	}
	testenv.NoLeaks(t)
	const tick = 40 * time.Millisecond
	faults := &testenv.Faults{
		Seed:     7,
		Delay:    0.35,
		MaxDelay: tick / 4,
		Tick:     tick,
	}
	runBaselineAndChaos(t, "bb", faults)
	drops, delays := faults.Dropped.Load(), faults.Delayed.Load()
	if delays == 0 || drops != 0 {
		t.Fatalf("jitter schedule injected drops=%d delays=%d, want delays only — test is vacuous", drops, delays)
	}
	t.Logf("chaos injected delays=%d; decisions match baseline", delays)
}
