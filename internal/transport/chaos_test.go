package transport

import (
	"testing"
	"time"

	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// Chaos tests: the fault-injection layer must (a) actually inject —
// the seeded schedules below are chosen so drops/delays demonstrably
// occur — and (b) stay inside the protocols' recovery envelope, so a
// chaos run decides exactly what the fault-free baseline decides. The
// per-run wall clock is real loopback TCP; ticks are kept generous so
// jitter under MaxDelay ≤ tick/2 stays within the δ-bound the tick
// loop assumes.

// runBaselineAndChaos runs one fault-free cluster and one chaos
// cluster with identical protocol inputs and asserts decisions match.
func runBaselineAndChaos(t *testing.T, protocol string, tick time.Duration, chaos ChaosConfig) (*ClusterResult, *ClusterResult) {
	t.Helper()
	crypto := mustSetup(t, 5)
	opts := ClusterOpts{
		Node:    Config{Params: crypto.Params, Crypto: crypto, TickInterval: tick},
		Machine: protocolMachines(crypto, protocol),
	}
	base, err := RunCluster(clusterCtx(t), opts)
	if err != nil {
		t.Fatalf("baseline cluster: %v", err)
	}
	opts.Node.Chaos = chaos
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
	return base, got
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
	_, got := runBaselineAndChaos(t, "wba", tick, ChaosConfig{
		Seed:      42,
		DropRate:  0.05,
		DelayRate: 0.20,
		MaxDelay:  tick / 4,
		FlapEvery: 7,
		FlapTicks: 1,
	})
	if got.ChaosDrops+got.ChaosDelays == 0 {
		t.Fatalf("chaos schedule injected nothing (drops=%d delays=%d) — test is vacuous",
			got.ChaosDrops, got.ChaosDelays)
	}
	t.Logf("chaos injected drops=%d delays=%d; decisions match baseline",
		got.ChaosDrops, got.ChaosDelays)
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
	_, got := runBaselineAndChaos(t, "bb", tick, ChaosConfig{
		Seed:      7,
		DelayRate: 0.35,
		MaxDelay:  tick / 4,
	})
	if got.ChaosDelays == 0 {
		t.Fatalf("jitter schedule injected no delays — test is vacuous")
	}
	t.Logf("chaos injected delays=%d; decisions match baseline", got.ChaosDelays)
}

// TestChaosVerdictDeterminism: a node's verdict sequence is a pure
// function of (seed, tick schedule, destination sequence).
func TestChaosVerdictDeterminism(t *testing.T) {
	cfg := ChaosConfig{
		Seed:           99,
		DropRate:       0.2,
		DelayRate:      0.3,
		MaxDelay:       time.Millisecond,
		PartitionEvery: 5,
		PartitionTicks: 2,
		FlapEvery:      3,
		FlapTicks:      1,
	}
	type v struct {
		drop  bool
		delay time.Duration
	}
	run := func() []v {
		c := newChaos(cfg, 0, 7, 10*time.Millisecond, nil)
		var out []v
		for tick := types.Tick(0); tick < 40; tick++ {
			c.tick(tick)
			for to := types.ProcessID(1); to < 7; to++ {
				drop, delay := c.verdict(to)
				out = append(out, v{drop, delay})
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged across identical replays: %+v vs %+v", i, a[i], b[i])
		}
	}
	var drops, delays int
	for _, x := range a {
		if x.drop {
			drops++
		}
		if x.delay > 0 {
			delays++
		}
	}
	if drops == 0 || delays == 0 {
		t.Fatalf("schedule exercised nothing: drops=%d delays=%d", drops, delays)
	}
}

// TestChaosPartitionCut pins the parity-cut geometry: inside a
// partition window every cross-parity frame drops and same-parity
// frames are untouched (given no rates configured).
func TestChaosPartitionCut(t *testing.T) {
	c := newChaos(ChaosConfig{
		Seed:           1,
		PartitionEvery: 4,
		PartitionTicks: 1,
	}, 0, 6, 10*time.Millisecond, nil)
	c.tick(4) // 4 % 4 == 0 < 1: window open
	for to := types.ProcessID(1); to < 6; to++ {
		drop, _ := c.verdict(to)
		wantDrop := int(to)%2 != 0 // self is 0 (even)
		if drop != wantDrop {
			t.Errorf("in-window verdict to %d: drop=%v, want %v", to, drop, wantDrop)
		}
	}
	c.tick(5) // window closed
	for to := types.ProcessID(1); to < 6; to++ {
		if drop, _ := c.verdict(to); drop {
			t.Errorf("out-of-window frame to %d dropped", to)
		}
	}
}
