package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"weak"

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
// size metering), the hot path that must stay allocation-free. The
// committed ceiling lives in TestSimTickAllocCeiling.
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

// TestSimTickAllocCeiling is the CI allocation guard for the tick loop.
// Setup (machine construction, engine scratch, recorder stats,
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

// TestRunReusesScratch is the guard on the recycled per-run buffers: a
// second Run of the same shape takes the first's scratch from spares and
// grows none of it — pending, arena, outs, inbox offsets and counts keep
// their capacity — and a spare scratch holds no message. The collector is
// off so that it cannot free the spare between the runs.
func TestRunReusesScratch(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 41
	run := quietRun(t, n)
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

	run()
	for i := 0; i < 10; i++ {
		before := latestSpare()
		want := capsOf(before)
		run()
		after := latestSpare()
		if want == (caps{}) || after != before {
			t.Fatalf("run %d: the second Run did not reuse the first's scratch", i)
		}
		if got := capsOf(after); got != want {
			t.Errorf("run %d: the scratch grew from %+v to %+v", i, want, got)
		}
		if holds(after) {
			t.Errorf("run %d: the spare scratch still holds messages", i)
		}
	}
}

// TestConcurrentRunsFindEverySpare is the guard behind spares: runs that
// overlap, as an engine run's session groups do, find the scratches the
// previous round released whichever P each lands on, so after the first
// round no run makes a scratch of its own. Two runs at a time on two Ps,
// made to overlap: a run takes its scratch before it builds a machine,
// and neither builds process 0 until both hold theirs. The collector is
// off so that it cannot free a spare between rounds.
func TestConcurrentRunsFindEverySpare(t *testing.T) {
	testenv.Procs(t, 2)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := quietConfig(t, 41)
	round := func() map[*scratch]bool {
		var held, wg sync.WaitGroup
		held.Add(2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := cfg
				c.Factory = func(id types.ProcessID) proto.Machine {
					if id == 0 {
						held.Done()
						held.Wait()
					}
					return cfg.Factory(id)
				}
				if _, err := Run(c); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		seen := map[*scratch]bool{}
		spares.mu.Lock()
		defer spares.mu.Unlock()
		for _, s := range spares.list.Value().free {
			seen[s] = true
		}
		return seen
	}
	want := round()
	for i := 0; i < 20; i++ {
		got := round()
		for s := range got {
			if !want[s] {
				t.Fatalf("round %d: a run made a new scratch with %d spares released before it", i, len(want))
			}
		}
	}
}

// TestSparesLastOneCollection pins the lifetime of the spare scratches:
// one collection after their run leaves them reusable, as it leaves an
// object in a sync.Pool, and a second with no run between frees them,
// so nothing is kept alive that a heap measured after two collections
// would count.
func TestSparesLastOneCollection(t *testing.T) {
	run := quietRun(t, 41)
	run()
	spare := weak.Make(latestSpare())
	runtime.GC()
	if spare.Value() == nil && !testenv.Race() { // the race detector's sync.Pool drops Puts at random
		t.Fatal("one collection freed the spare scratch")
	}
	runtime.GC()
	if spare.Value() != nil {
		t.Error("the spare scratch outlived two collections with no run")
	}
}

// quietConfig is a run of n quiet chatters on one suite, the shape the
// scratch guards repeat.
func quietConfig(t *testing.T, n int) Config {
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("bench"))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Params:   params,
		Crypto:   proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")),
		Factory:  func(types.ProcessID) proto.Machine { return newQuietChatter(params, 10) },
		MaxTicks: 128,
	}
}

// quietRun returns a Run of quietConfig(t, n).
func quietRun(t *testing.T, n int) func() {
	cfg := quietConfig(t, n)
	return func() {
		if _, err := Run(cfg); err != nil {
			t.Error(err)
		}
	}
}

// latestSpare is the scratch the next run will take, or nil.
func latestSpare() *scratch {
	spares.mu.Lock()
	defer spares.mu.Unlock()
	l := spares.list.Value()
	if l == nil || len(l.free) == 0 {
		return nil
	}
	return l.free[len(l.free)-1]
}

// TestSimTickAllocCeilingLargeN pins the dense-state engine at scale: at
// n = 1024 the steady-state tick loop must stay within 4x the n = 41
// ceiling (ISSUE acceptance). Before the arena/BitSet rewrite the
// engine's per-tick cost included O(n) map and slice churn, so this bound
// was unreachable at this n. Machines unicast to 8 ring neighbors, 8n =
// 8192 messages per tick, which keeps the test fast on one core.
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
