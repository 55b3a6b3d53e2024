package engine

import (
	"encoding/base64"
	"fmt"
	"runtime"
	"testing"

	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// commitShapes are the RunACSLog calls the repo benchmark's write paths
// reduce to: the one-command flush service.Core.Commit issues for a
// serial put (n=4, one round — `engine.allocs_per_call.n4r1`), the
// 32-command flush of a burst of inline puts (n=4, one round, every
// proposer a full batch of 8 — the shape that pays for value bytes) and
// the batched library call of lib-acs-crash1 (n=9, one crashed proposer,
// four rounds of batch 16). The two n = 4 flushes run on one suite from
// NewCrypto, each call in its own signing domain, as a service.Core
// builds its suite once and reuses it for every flush; n9f1 derives its
// keys per call, as the library call does. The worker count stays at
// GOMAXPROCS on purpose: that is what the service runs, and what the
// older guards (serial stepping, idle ticks) never measured.
var commitShapes = []struct {
	name          string
	cfg           Config
	rounds, batch int
	queues        func() [][]types.Value
	committed     int
	shareSuite    bool // run every call on one suite, as service.Core does
	// Ceilings on one call's allocations and bytes; the race pair is the
	// wider one the guard holds the call to under the race detector (see
	// TestCommitAllocCeiling).
	allocCeiling, byteCeiling         float64
	raceAllocCeiling, raceByteCeiling float64
	// dealerMACs is the number of dealer MACs one call computes: one per
	// certificate minted, plus one per check of a certificate that did
	// not come straight from its mint (see TestCommitDealerMACs).
	dealerMACs uint64
}{
	{
		name: "n4r1", cfg: Config{N: 4, T: 1, Inflight: 1}, rounds: 1, batch: 8,
		queues: func() [][]types.Value {
			return [][]types.Value{{types.Value("SET a2V5LTAwMDE i:dmFsdWU")}, nil, nil, nil}
		},
		committed: 1, shareSuite: true, allocCeiling: 1160, byteCeiling: 87e3,
		raceAllocCeiling: 1400, raceByteCeiling: 116e3, dealerMACs: 16,
	},
	{
		name: "n4b32", cfg: Config{N: 4, T: 1, Inflight: 1}, rounds: 1, batch: 8,
		queues:    func() [][]types.Value { return burstQueues(4, 8) },
		committed: 32, shareSuite: true, allocCeiling: 1200, byteCeiling: 207e3,
		raceAllocCeiling: 1410, raceByteCeiling: 230e3, dealerMACs: 16,
	},
	{
		name: "n9f1", cfg: Config{N: 9, F: 1}, rounds: 4, batch: 16,
		queues:    func() [][]types.Value { return acsQueues(9, 4*16) },
		committed: 8 * 4 * 16, allocCeiling: 68600, byteCeiling: 4.5e6,
		raceAllocCeiling: 79500, raceByteCeiling: 8.5e6, dealerMACs: 140,
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

// commitSuite is the suite shape i's calls share, built by the caller
// outside whatever it measures: nil, a suite per call, unless the shape
// shares one.
func commitSuite(tb testing.TB, i int) *proto.Crypto {
	s := &commitShapes[i]
	if !s.shareSuite {
		return nil
	}
	crypto, err := NewCrypto(s.cfg.N, s.cfg.T, proto.Generated())
	if err != nil {
		tb.Fatal(err)
	}
	return crypto
}

// runCommitShape makes shape i's call on crypto (commitSuite(i)). queues is
// s.queues(), built by the caller outside whatever it measures (RunACSLog
// only reads it); seed is the call's signing domain.
func runCommitShape(tb testing.TB, i int, queues [][]types.Value, crypto *proto.Crypto, seed int64) {
	s := &commitShapes[i]
	cfg := s.cfg
	cfg.Seed, cfg.Crypto = seed, crypto
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
			queues, crypto := commitShapes[i].queues(), commitSuite(b, i)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				runCommitShape(b, i, queues, crypto, int64(k))
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
// 1, which would turn the default worker count into the serial engine.
func TestCommitAllocCeiling(t *testing.T) {
	for i := range commitShapes {
		s := &commitShapes[i]
		allocCeiling, byteCeiling := s.allocCeiling, s.byteCeiling
		if testenv.Race() {
			allocCeiling, byteCeiling = s.raceAllocCeiling, s.raceByteCeiling
		}
		const runs = 3
		queues, crypto := s.queues(), commitSuite(t, i)
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
			s.name, allocs, bytes/1e3, allocCeiling, byteCeiling/1e3, runtime.GOMAXPROCS(0), testenv.Race())
		if allocs > allocCeiling {
			t.Errorf("%s: %.0f allocs per call, ceiling %.0f", s.name, allocs, allocCeiling)
		}
		if bytes > byteCeiling {
			t.Errorf("%s: %.0f kB allocated per call, ceiling %.0f kB", s.name, bytes/1e3, byteCeiling/1e3)
		}
	}
}

// TestCommitDealerMACs pins the dealer work of each commit shape's call:
// every certificate is verified once, at its mint, by the suite that
// minted it. At n = 4 the 16 certificates a round mints are each checked
// by all four processes, which cost 64 MACs more before those checks were
// answered from the mint record; the n9f1 call's 108 mints were checked
// 864 times, and the 32 MACs left beyond the mints are certificates the
// BB validator decodes out of vetted values, which carry no record.
func TestCommitDealerMACs(t *testing.T) {
	for i := range commitShapes {
		s := &commitShapes[i]
		queues, crypto := s.queues(), commitSuite(t, i)
		runCommitShape(t, i, queues, crypto, 0)
		before := threshold.DealerMACs()
		runCommitShape(t, i, queues, crypto, 1)
		if got := threshold.DealerMACs() - before; got != s.dealerMACs {
			t.Errorf("%s: %d dealer MACs per call, want %d", s.name, got, s.dealerMACs)
		}
	}
}
