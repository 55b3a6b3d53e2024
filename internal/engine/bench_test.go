package engine

import (
	"encoding/base64"
	"fmt"
	"runtime"
	"testing"

	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// commitShapes are the RunACSLog calls the repo benchmark's write paths
// reduce to: the one-command flush service.Core.Commit issues for a
// serial put (n=4, one round — `engine.allocs_per_call.n4r1`), the
// 32-command flush of a burst of inline puts (n=4, one round, every
// proposer a full batch of 8 — the shape that pays for value bytes) and
// the batched library call of lib-acs-crash1 (n=9, one crashed proposer,
// four rounds of batch 16). The worker count stays at GOMAXPROCS on
// purpose: that is what the service runs, and what the older guards
// (serial stepping, idle ticks) never measured.
var commitShapes = []struct {
	name          string
	cfg           Config
	rounds, batch int
	queues        func() [][]types.Value
	committed     int
	// Ceilings on one call's allocations and bytes; the race pair is the
	// wider one the guard holds the call to under the race detector (see
	// TestCommitAllocCeiling).
	allocCeiling, byteCeiling         float64
	raceAllocCeiling, raceByteCeiling float64
}{
	{
		name: "n4r1", cfg: Config{N: 4, T: 1, Inflight: 1}, rounds: 1, batch: 8,
		queues: func() [][]types.Value {
			return [][]types.Value{{types.Value("SET a2V5LTAwMDE i:dmFsdWU")}, nil, nil, nil}
		},
		committed: 1, allocCeiling: 1390, byteCeiling: 113e3,
		raceAllocCeiling: 1620, raceByteCeiling: 136e3,
	},
	{
		name: "n4b32", cfg: Config{N: 4, T: 1, Inflight: 1}, rounds: 1, batch: 8,
		queues:    func() [][]types.Value { return burstQueues(4, 8) },
		committed: 32, allocCeiling: 1430, byteCeiling: 233e3,
		raceAllocCeiling: 1640, raceByteCeiling: 253e3,
	},
	{
		name: "n9f1", cfg: Config{N: 9, F: 1}, rounds: 4, batch: 16,
		queues:    func() [][]types.Value { return acsQueues(9, 4*16) },
		committed: 8 * 4 * 16, allocCeiling: 68800, byteCeiling: 6.3e6,
		raceAllocCeiling: 79800, raceByteCeiling: 9.9e6,
	},
}

// burstQueues gives n proposers perProc inline puts each, in the form
// service.Core.Commit hands the log: "SET <key> i:<value>", key and a
// 64-byte value in unpadded URL base64 — about 100 B a command.
func burstQueues(n, perProc int) [][]types.Value {
	queues := make([][]types.Value, n)
	for i := range queues {
		for j := 0; j < perProc; j++ {
			key := []byte(fmt.Sprintf("key-%04d", i*perProc+j))
			value := make([]byte, 64)
			for k := range value {
				value[k] = byte(i*perProc + j + k)
			}
			queues[i] = append(queues[i], types.Value("SET "+base64.RawURLEncoding.EncodeToString(key)+
				" i:"+base64.RawURLEncoding.EncodeToString(value)))
		}
	}
	return queues
}

// runCommitShape makes shape i's call. queues is s.queues(), built by the
// caller outside whatever it measures (RunACSLog only reads it).
func runCommitShape(tb testing.TB, i int, queues [][]types.Value, seed int64) {
	s := &commitShapes[i]
	cfg := s.cfg
	cfg.Seed = seed
	rep, err := RunACSLog(cfg, queues, s.rounds, s.batch)
	if err != nil {
		tb.Fatal(err)
	}
	if !rep.Converged || rep.Committed != s.committed {
		tb.Fatalf("%s: converged=%t committed=%d, want %d", s.name, rep.Converged, rep.Committed, s.committed)
	}
}

// BenchmarkRunACSLogCommit is the profiling entry point for the cost of a
// commit (`make profile-commit`): every sign-base encoding, MAC,
// verify-cache lookup and tick of the real crypto path, nothing of the
// service around it.
func BenchmarkRunACSLogCommit(b *testing.B) {
	for i := range commitShapes {
		b.Run(commitShapes[i].name, func(b *testing.B) {
			queues := commitShapes[i].queues()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				runCommitShape(b, i, queues, int64(k))
			}
		})
	}
}

// TestCommitAllocCeiling is the engine-level alloc guard on the real
// crypto path at GOMAXPROCS per-tick workers: whole-call allocation counts and
// bytes of the three commit shapes, with about 10 % headroom over what
// this test logs for n4r1, n4b32 and n9f1 (with weak BA and BB keeping
// their per-phase state in maps: 1 866 / 144 kB, – and 74 750 / 8.0 MB;
// with one entry per phase that ran: 1 515 / 116 kB, 1 680 / 411 kB and
// 67 650 / 7.2 MB; with sign bases over a value's digest and exact-size
// value frames: 1 378 / 110 kB, 1 539 / 301 kB and 65 600–65 900 /
// 6.2–6.4 MB; with BB envelopes, weak BA decisions and ACS batches read
// in place, no whole-run output and a presized log, at GOMAXPROCS 2:
// 1 265 / 103 kB, 1 301 / 211 kB and 62 540–62 560 / 5.7 MB — bytes as
// `go test -bench` prints them, 1 kB = 1 000 B). Under the race detector
// sync.Pool drops a quarter of its Puts, so pooled wire writers, MAC
// states and routing arenas are re-made at random (measured there over
// five runs: 1 444–1 472 / 121–123 kB, 1 462–1 493 / 228–230 kB and
// 72 150–72 560 / 8.8–9.0 MB); the guard still runs, with about 10 %
// headroom over the highest of those.
// It reads MemStats itself because testing.AllocsPerRun pins GOMAXPROCS to
// 1, which would turn the default worker count into the serial engine.
func TestCommitAllocCeiling(t *testing.T) {
	for i := range commitShapes {
		s := &commitShapes[i]
		allocCeiling, byteCeiling := s.allocCeiling, s.byteCeiling
		if testenv.Race() {
			allocCeiling, byteCeiling = s.raceAllocCeiling, s.raceByteCeiling
		}
		const runs = 3
		queues := s.queues()
		runCommitShape(t, i, queues, 0) // warm the lazily built package state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 1; k <= runs; k++ {
			runCommitShape(t, i, queues, int64(k))
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocs, %.0f kB per RunACSLog call (ceilings %.0f, %.0f kB; GOMAXPROCS %d, race %t)",
			s.name, allocs, bytes/1e3, allocCeiling, byteCeiling/1e3, runtime.GOMAXPROCS(0), testenv.Race())
		if allocs > allocCeiling {
			t.Errorf("%s: %.0f allocs per call, ceiling %.0f", s.name, allocs, allocCeiling)
		}
		if bytes > byteCeiling {
			t.Errorf("%s: %.0f kB allocated per call, ceiling %.0f kB", s.name, bytes/1e3, byteCeiling/1e3)
		}
	}
}
