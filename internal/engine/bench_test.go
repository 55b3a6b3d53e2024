package engine_test

import (
	"runtime"
	"testing"

	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/testenv/scenarios"
	"adaptiveba/internal/types"
)

// commitShapes are the RunACSLog calls the repo benchmark's write paths
// reduce to (scenarios.CommitShapes: a serial put's flush n4r1 —
// `engine.allocs_per_call.n4r1` —, a 32-put burst's flush n4b32 and
// lib-acs-crash1's batched call n9f1), with what each call may cost.
// GOMAXPROCS stays as it is on purpose: that is what the service and the
// library run.
var commitShapes = []struct {
	scenarios.CommitShape
	// Ceilings on one call's allocations and bytes; the race pair is the
	// wider one the guard holds the call to under the race detector (see
	// TestCommitAllocCeiling).
	allocCeiling, byteCeiling         float64
	raceAllocCeiling, raceByteCeiling float64
	// dealerMACs is the number of dealer MACs one call computes: one per
	// certificate minted, plus one per check of bytes its scheme did not
	// mint and forward lately (see TestCommitDealerMACs).
	dealerMACs uint64
	// ticks, run and steps are the call's logical ticks, the ticks the
	// simulator ran and its Begin/Tick calls on the roots, as one
	// simulation (see TestCommitSteps).
	ticks, run types.Tick
	steps      int64
}{
	{
		CommitShape:  scenarios.CommitShapes()[0],
		allocCeiling: 1160, byteCeiling: 87e3,
		raceAllocCeiling: 1400, raceByteCeiling: 116e3, dealerMACs: 16,
		ticks: 48, run: 14, steps: 50,
	},
	{
		CommitShape:  scenarios.CommitShapes()[1],
		allocCeiling: 1200, byteCeiling: 207e3,
		raceAllocCeiling: 1410, raceByteCeiling: 230e3, dealerMACs: 16,
		ticks: 48, run: 14, steps: 50,
	},
	{
		CommitShape:  scenarios.CommitShapes()[2],
		allocCeiling: 68600, byteCeiling: 4.5e6,
		raceAllocCeiling: 79500, raceByteCeiling: 8.5e6, dealerMACs: 108,
		ticks: 180, run: 126, steps: 966,
	},
}

// commitConfig is shape s's engine configuration.
func commitConfig(s *scenarios.CommitShape) engine.Config {
	return engine.Config{N: s.N, T: s.T, F: s.F, Inflight: s.Inflight}
}

// commitSuite is the suite shape i's calls share, built by the caller
// outside whatever it measures: nil, a suite per call, unless the shape
// shares one.
func commitSuite(tb testing.TB, i int) *proto.Crypto {
	s := &commitShapes[i]
	if !s.ShareSuite {
		return nil
	}
	crypto, err := engine.NewCrypto(s.N, s.T, proto.Generated())
	if err != nil {
		tb.Fatal(err)
	}
	return crypto
}

// runCommitShape makes shape i's call on crypto (commitSuite(i)). queues is
// s.Queues(), built by the caller outside whatever it measures (RunACSLog
// only reads it); seed is the call's signing domain.
func runCommitShape(tb testing.TB, i int, queues [][]types.Value, crypto *proto.Crypto, seed int64) {
	s := &commitShapes[i]
	cfg := commitConfig(&s.CommitShape)
	cfg.Seed, cfg.Crypto = seed, crypto
	rep, err := engine.RunACSLog(cfg, queues, s.Rounds, s.Batch)
	if err != nil {
		tb.Fatal(err)
	}
	if !rep.Converged || rep.Committed != s.Committed {
		tb.Fatalf("%s: converged=%t committed=%d, want %d", s.Name, rep.Converged, rep.Committed, s.Committed)
	}
}

// BenchmarkRunACSLogCommit is the profiling entry point for the cost of a
// commit (`make profile-commit`): every sign-base encoding, MAC,
// verify-cache lookup and tick of the real crypto path, nothing of the
// service around it.
func BenchmarkRunACSLogCommit(b *testing.B) {
	for i := range commitShapes {
		b.Run(commitShapes[i].Name, func(b *testing.B) {
			queues, crypto := commitShapes[i].Queues(), commitSuite(b, i)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				runCommitShape(b, i, queues, crypto, int64(k))
			}
		})
	}
}

// TestCommitAllocCeiling is the engine-level alloc guard on the real
// crypto path at GOMAXPROCS session groups: whole-call allocation counts and
// bytes of the three commit shapes, with about 10 % headroom over what
// this test logs for n4r1, n4b32 and n9f1 (with weak BA and BB keeping
// their per-phase state in maps: 1 866 / 144 kB, – and 74 750 / 8.0 MB;
// with one entry per phase that ran: 1 515 / 116 kB, 1 680 / 411 kB and
// 67 650 / 7.2 MB; with sign bases over a value's digest and exact-size
// value frames: 1 378 / 110 kB, 1 539 / 301 kB and 65 600–65 900 /
// 6.2–6.4 MB; with BB envelopes, weak BA decisions and ACS batches read
// in place, no whole-run output and a presized log, at GOMAXPROCS 2:
// 1 265 / 103 kB, 1 301 / 211 kB and 62 540–62 560 / 5.7 MB; with the n = 4
// shapes on one shared suite, as the service runs them: 1 124 / 92 kB and
// 1 160 / 201 kB; with leaders minting from the shares they collected:
// 1 100 / 88 kB, 1 136 / 197 kB and 62 390 / 5.6 MB; with the
// simulator's per-run buffers pooled, n9f1's four rounds in two
// concurrent session groups and sessions' nested paths joined once:
// 1 055 / 79 kB, 1 092 / 188 kB and 62 310–62 370 / 4.1–4.6 MB, the
// high end a run whose second group found no pooled buffers on its P;
// with minted certificates carrying their mint record and spare
// simulator buffers found from every P: 1 055 / 81 kB, 1 092 / 190 kB
// and 62 300–62 330 / 4.10–4.14 MB over 20 runs — bytes as `go test
// -bench` prints them, 1 kB = 1 000 B). Under the race detector
// sync.Pool drops a quarter of its Puts, so pooled wire writers, routing
// arenas and the like are re-made at random (measured there over ten
// runs: 1 214–1 242 / 98–100 kB and 1 238–1 277 / 206–209 kB; over
// twenty: 71 920–72 320 / 7.0–7.8 MB); the guard still runs, with about
// 10 % headroom over the highest of those.
// It reads MemStats itself because testing.AllocsPerRun pins GOMAXPROCS to
// 1, which would run n9f1 as one simulation instead of session groups.
func TestCommitAllocCeiling(t *testing.T) {
	for i := range commitShapes {
		s := &commitShapes[i]
		allocCeiling, byteCeiling := s.allocCeiling, s.byteCeiling
		if testenv.Race() {
			allocCeiling, byteCeiling = s.raceAllocCeiling, s.raceByteCeiling
		}
		const runs = 3
		queues, crypto := s.Queues(), commitSuite(t, i)
		runCommitShape(t, i, queues, crypto, 0) // warm the lazily built package (and shared suite) state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 1; k <= runs; k++ {
			runCommitShape(t, i, queues, crypto, int64(k))
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocs, %.0f kB per RunACSLog call (ceilings %.0f, %.0f kB; GOMAXPROCS %d, race %t)",
			s.Name, allocs, bytes/1e3, allocCeiling, byteCeiling/1e3, runtime.GOMAXPROCS(0), testenv.Race())
		if allocs > allocCeiling {
			t.Errorf("%s: %.0f allocs per call, ceiling %.0f", s.Name, allocs, allocCeiling)
		}
		if bytes > byteCeiling {
			t.Errorf("%s: %.0f kB allocated per call, ceiling %.0f kB", s.Name, bytes/1e3, byteCeiling/1e3)
		}
	}
}

// TestCommitDealerMACs pins the dealer work of each commit shape's call:
// every certificate is verified once, at its mint, by the suite that
// minted it. At n = 4 the 16 certificates a round mints are each checked
// by all four processes, which cost 64 MACs more before those checks were
// answered from the mint record; the n9f1 call's 108 mints were checked
// 864 times, and 32 checks more, of certificates the BB validator decodes
// out of vetted values, cost a MAC each until record-less copies of a
// forwarded certificate (threshold.Cert.Forward) were answered from its
// record.
func TestCommitDealerMACs(t *testing.T) {
	for i := range commitShapes {
		s := &commitShapes[i]
		queues, crypto := s.Queues(), commitSuite(t, i)
		runCommitShape(t, i, queues, crypto, 0)
		before := threshold.DealerMACs()
		runCommitShape(t, i, queues, crypto, 1)
		if got := threshold.DealerMACs() - before; got != s.dealerMACs {
			t.Errorf("%s: %d dealer MACs per call, want %d", s.Name, got, s.dealerMACs)
		}
	}
}

// TestCommitSteps pins how much of each commit shape's call the simulator
// steps, as one simulation (GOMAXPROCS 1: session groups would each run
// the whole tick range). Stepping every root at every tick, an n = 4
// flush ran all 49 of its ticks and made 196 steps, n9f1 181 ticks and
// 1 448 steps; a machine without mail is now stepped only when it is due,
// and ticks at which nobody is due are skipped. Logical ticks do not move.
func TestCommitSteps(t *testing.T) {
	testenv.Procs(t, 1)
	for i := range commitShapes {
		s := &commitShapes[i]
		cfg := commitConfig(&s.CommitShape)
		cfg.Crypto = commitSuite(t, i)
		var run types.Tick
		cfg.Halt = func(types.Tick) bool { run++; return false }
		rep, err := engine.RunACSLog(cfg, s.Queues(), s.Rounds, s.Batch)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Engine.Ticks; got != s.ticks || run != s.run || rep.Engine.Metrics.Steps != s.steps {
			t.Errorf("%s: ticks %d, ran %d, steps %d; pinned %d, %d, %d",
				s.Name, got, run, rep.Engine.Metrics.Steps, s.ticks, s.run, s.steps)
		}
	}
}
