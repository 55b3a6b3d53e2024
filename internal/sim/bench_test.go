package sim

import (
	"fmt"
	"runtime/debug"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// BenchmarkEngineThroughput measures raw simulator overhead: n machines
// broadcasting every tick for a fixed horizon.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, n := range []int{11, 41} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			params, err := types.NewParams(n)
			if err != nil {
				b.Fatal(err)
			}
			ring, err := sig.NewHMACRing(n, []byte("bench"))
			if err != nil {
				b.Fatal(err)
			}
			crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Params: params,
					Crypto: crypto,
					Factory: func(id types.ProcessID) proto.Machine {
						return &chatter{params: params, horizon: 20}
					},
					MaxTicks: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.TimedOut {
					b.Fatal("timed out")
				}
			}
			b.ReportMetric(float64(20*n*n), "msgs/run")
		})
	}
}

// BenchmarkSimTick isolates the engine's per-tick overhead: quiet
// machines precompute their broadcast once, so allocations measured here
// are the engine's own (inbox buckets, traffic slices, shuffle sources,
// size metering) — the hot path this PR makes allocation-free. The
// committed ceiling for the serial path lives in TestSimTickAllocCeiling.
// Compare the serial step with the fan-out through -cpu (e.g. -cpu 1,4).
func BenchmarkSimTick(b *testing.B) {
	for _, n := range []int{11, 41} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			params, err := types.NewParams(n)
			if err != nil {
				b.Fatal(err)
			}
			ring, err := sig.NewHMACRing(n, []byte("bench"))
			if err != nil {
				b.Fatal(err)
			}
			crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
			const horizon = 20
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Params: params,
					Crypto: crypto,
					Factory: func(id types.ProcessID) proto.Machine {
						return newQuietChatter(params, horizon)
					},
					MaxTicks:    64,
					ShuffleSeed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.TimedOut {
					b.Fatal("timed out")
				}
			}
			b.ReportMetric(float64(horizon*n*n), "msgs/run")
		})
	}
}

// TestSimTickAllocCeiling is the CI allocation guard for the serial hot
// path (testing.AllocsPerRun runs at GOMAXPROCS 1, so the step is inline). Setup (machine construction, engine scratch, recorder stats,
// first-tick bucket growth) legitimately allocates O(n log n) per Run, so
// the guard differences two horizons: the extra ticks of the longer run
// must be allocation-free — inbox buckets, traffic buffers, and shuffle
// sources are reused per-engine scratch. Before this engine existed,
// every extra tick cost >n allocations (fresh inboxes plus a rand.New per
// shuffled inbox).
func TestSimTickAllocCeiling(t *testing.T) {
	const n = 41
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("bench"))
	if err != nil {
		t.Fatal(err)
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
	measure := func(horizon types.Tick) float64 {
		return testing.AllocsPerRun(10, func() {
			res, err := Run(Config{
				Params: params,
				Crypto: crypto,
				Factory: func(id types.ProcessID) proto.Machine {
					return newQuietChatter(params, horizon)
				},
				MaxTicks:    128,
				ShuffleSeed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TimedOut {
				t.Fatal("timed out")
			}
		})
	}
	short, long := measure(5), measure(45)
	perTick := (long - short) / 40
	// Committed ceilings: the steady-state tick loop stays allocation-free
	// (< 2/tick leaves room for measurement noise; a real regression costs
	// >= n per tick), and whole-Run setup stays within ~12 allocations per
	// machine.
	if perTick >= 2 {
		t.Errorf("steady-state tick loop allocates %.2f per tick (short=%.0f long=%.0f), want < 2", perTick, short, long)
	}
	const runCeiling = 12*n + 120
	if long > runCeiling {
		t.Errorf("Run allocates %.0f, above committed ceiling %d", long, runCeiling)
	}
}

// TestRunReusesScratch is the guard on the pooled per-run buffers: a
// second Run of the same shape takes the first's scratch from the pool
// and grows none of it — pending, arena, outs, inbox offsets and counts
// keep their capacity — and a scratch back in the pool holds no message.
// One P keeps the pool's per-P cache in one place, and the collector is
// off so that it cannot empty the pool between the runs. (The sharded
// delivery's chunk counts need two workers; they are not covered.) Under
// the race detector sync.Pool drops a quarter of its Puts, so a run may
// get a fresh scratch there (about two runs in three did, measured): the
// guard checks every run that reused one and needs one reuse in forty.
func TestRunReusesScratch(t *testing.T) {
	testenv.Procs(t, 1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 41
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("bench"))
	if err != nil {
		t.Fatal(err)
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
	run := func() {
		if _, err := Run(Config{
			Params:   params,
			Crypto:   crypto,
			Factory:  func(types.ProcessID) proto.Machine { return newQuietChatter(params, 10) },
			MaxTicks: 128,
		}); err != nil {
			t.Fatal(err)
		}
	}
	type caps struct{ pending, arena, inboxOff, counts, outs, sends int }
	capsOf := func(s *scratch) caps {
		c := caps{cap(s.pending), cap(s.arena), cap(s.inboxOff), cap(s.counts), cap(s.outs), 0}
		for _, o := range s.outs {
			c.sends += cap(o)
		}
		return c
	}
	holds := func(s *scratch) bool {
		for _, m := range s.pending[:cap(s.pending)] {
			if m != (Message{}) {
				return true
			}
		}
		for _, in := range s.arena[:cap(s.arena)] {
			if in != (proto.Incoming{}) {
				return true
			}
		}
		for _, o := range s.outs {
			for _, out := range o[:cap(o)] {
				if out != (proto.Outgoing{}) {
					return true
				}
			}
		}
		return false
	}
	pooled := func() *scratch {
		s := scratchPool.Get().(*scratch)
		scratchPool.Put(s)
		return s
	}

	runs := 10
	if testenv.Race() {
		runs = 40
	}
	run()
	reused := 0
	for i := 0; i < runs; i++ {
		before := pooled()
		want := capsOf(before)
		run()
		after := pooled()
		if want == (caps{}) || after != before { // a Put the pool dropped
			if !testenv.Race() {
				t.Fatalf("run %d: the second Run did not reuse the first's scratch", i)
			}
			continue
		}
		reused++
		if got := capsOf(after); got != want {
			t.Errorf("run %d: the scratch grew from %+v to %+v", i, want, got)
		}
		if holds(after) {
			t.Errorf("run %d: the pooled scratch still holds messages", i)
		}
	}
	t.Logf("%d of %d runs reused the pooled scratch (race %t)", reused, runs, testenv.Race())
	if reused == 0 {
		t.Error("no run reused the pooled scratch")
	}
}

// TestSimTickAllocCeilingLargeN pins the dense-state engine at scale: at
// n = 1024 the steady-state tick loop must stay within 4x the n = 41
// ceiling (ISSUE acceptance). Before the arena/BitSet rewrite the
// engine's per-tick cost included O(n) map and slice churn, so this bound
// was unreachable at this n. Machines unicast to 8 ring neighbors — the
// per-tick pending count (8n = 8192) still crosses the sharded-delivery
// gate while keeping the test fast on one core.
func TestSimTickAllocCeilingLargeN(t *testing.T) {
	const n = 1024
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("bench"))
	if err != nil {
		t.Fatal(err)
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
	measure := func(horizon types.Tick) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := Run(Config{
				Params: params,
				Crypto: crypto,
				Factory: func(id types.ProcessID) proto.Machine {
					return newRingChatter(params, id, 8, horizon)
				},
				MaxTicks:    128,
				ShuffleSeed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TimedOut {
				t.Fatal("timed out")
			}
		})
	}
	short, long := measure(5), measure(45)
	perTick := (long - short) / 40
	if perTick >= 8 {
		t.Errorf("n=%d steady-state tick loop allocates %.2f per tick (short=%.0f long=%.0f), want < 8 (4x the n=41 ceiling)",
			n, perTick, short, long)
	}
}

// ringChatter unicasts one precomputed payload to each of its k ring
// successors every tick, so the machine itself allocates only at
// construction — any steady-state allocation belongs to the engine.
type ringChatter struct {
	outs    []proto.Outgoing
	horizon types.Tick
	now     types.Tick
}

func newRingChatter(params types.Params, id types.ProcessID, k int, horizon types.Tick) *ringChatter {
	outs := make([]proto.Outgoing, k)
	for i := range outs {
		outs[i] = proto.Outgoing{To: types.ProcessID((int(id) + 1 + i) % params.N), Payload: ping{}}
	}
	return &ringChatter{outs: outs, horizon: horizon}
}

func (c *ringChatter) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return append(outs, c.outs...)
}

func (c *ringChatter) Tick(now types.Tick, _ []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	c.now = now
	if now >= c.horizon {
		return outs
	}
	return append(outs, c.outs...)
}

func (c *ringChatter) Output() (types.Value, bool) { return nil, c.now >= c.horizon }
func (c *ringChatter) Done() bool                  { return c.now >= c.horizon }

// quietChatter broadcasts the same precomputed sends every tick, so the
// machine itself allocates only at construction.
type quietChatter struct {
	outs    []proto.Outgoing
	horizon types.Tick
	now     types.Tick
}

func newQuietChatter(params types.Params, horizon types.Tick) *quietChatter {
	return &quietChatter{outs: proto.AppendBroadcast(nil, params, "", ping{}), horizon: horizon}
}

func (c *quietChatter) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return append(outs, c.outs...)
}

func (c *quietChatter) Tick(now types.Tick, _ []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	c.now = now
	if now >= c.horizon {
		return outs
	}
	return append(outs, c.outs...)
}

func (c *quietChatter) Output() (types.Value, bool) { return nil, c.now >= c.horizon }
func (c *quietChatter) Done() bool                  { return c.now >= c.horizon }

// chatter broadcasts one payload per tick until its horizon.
type chatter struct {
	params  types.Params
	horizon types.Tick
	now     types.Tick
}

type ping struct{}

func (ping) Type() string { return "bench/ping" }
func (ping) Words() int   { return 1 }

func (c *chatter) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return proto.AppendBroadcast(outs, c.params, "", ping{})
}

func (c *chatter) Tick(now types.Tick, _ []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	c.now = now
	if now >= c.horizon {
		return outs
	}
	return proto.AppendBroadcast(outs, c.params, "", ping{})
}

func (c *chatter) Output() (types.Value, bool) { return nil, c.now >= c.horizon }
func (c *chatter) Done() bool                  { return c.now >= c.horizon }
