# adaptiveba — reproduction of "Make Every Word Count" (PODC 2022).

GO ?= go

.PHONY: all build test test-short test-race vet bench bench-all profile-commit profile-serve alloc-guard race-guard deps-guard explore svc-smoke experiments examples fuzz cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short mode skips the experiment reports and some TCP cluster runs, and
# keeps one corner of each long grid; the safety sweeps always run.
test-short:
	$(GO) test -short ./...

# Race detector over the concurrent paths (parallel harness, session
# groups, transport).
test-race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the four committed reports, one `-bench` run each, then
# check every root BENCH_*.json mechanically: one schema, a revision,
# every check true, and engine/explore reproduced field for field
# (TestCommittedReports). What each bench measures is in EXPERIMENTS.md
# (X-ENGINE, X-ACS, X-EXPLORE, X-SCALE). Takes about 90 s on a 2-CPU host;
# the floodset cells of scale at n = 4096 dominate (each scale cell runs
# once unmeasured before it is timed).
BENCHES := engine acs explore scale
bench-all:
	for b in $(BENCHES); do $(GO) run ./cmd/adaptiveba-bench -bench $$b || exit 1; done
	$(GO) test ./cmd/adaptiveba-bench -run TestCommittedReports -count=1 -v

# Profile one commit on the real crypto path and print where its
# allocations (count and bytes) and its CPU go. SHAPE picks the call:
# n4r1 (default) is the engine.RunACSLog call behind a serial put (one
# command, n=4, one round), n4b32 the one behind a burst of 32 inline puts
# (n=4, one round, 4 x batch 8 commands of about 100 B), n9f1 the batched
# library call of lib-acs-crash1 (n=9, one crashed proposer, 4 rounds x
# batch 16). The
# first pass samples every allocation (-memprofilerate 1), which distorts
# timing, so CPU is a second pass of ten times as many calls. This is the
# command that regenerates
# the attribution tables of ROADMAP item 2 and EXPERIMENTS X-WORDCOST /
# X-MSGPATH. Profiles and the test binary land in $(PROFILE_DIR)
# (git-ignored) for `go tool pprof -http`.
PROFILE_DIR := profiles
SHAPE ?= n4r1
PROFILE_ITERS_n4r1 := 200
PROFILE_ITERS_n4b32 := 100
PROFILE_ITERS_n9f1 := 10
profile-commit:
	mkdir -p $(PROFILE_DIR)
	$(GO) test ./internal/engine -run '^$$' -bench 'BenchmarkRunACSLogCommit/$(SHAPE)$$' -benchtime $(PROFILE_ITERS_$(SHAPE))x \
		-memprofile $(PROFILE_DIR)/commit.mem.pprof -memprofilerate 1 -o $(PROFILE_DIR)/engine.test
	$(GO) test ./internal/engine -run '^$$' -bench 'BenchmarkRunACSLogCommit/$(SHAPE)$$' -benchtime $(PROFILE_ITERS_$(SHAPE))0x \
		-cpuprofile $(PROFILE_DIR)/commit.cpu.pprof -o $(PROFILE_DIR)/engine.test
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 $(PROFILE_DIR)/engine.test $(PROFILE_DIR)/commit.mem.pprof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 25 $(PROFILE_DIR)/engine.test $(PROFILE_DIR)/commit.mem.pprof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/engine.test $(PROFILE_DIR)/commit.cpu.pprof

# Profile the serving path the same way: client requests through a Server
# over loopback TCP at n = 4 (BenchmarkServePut and BenchmarkServeGet in
# internal/service), where profile-commit sees only the engine call behind
# the Puts. SERVE picks the shape: serial (default), one Put per round
# trip; burst32, 32 pipelined Puts per operation; get-inline, one Get of a
# 64-byte inline value per round trip; or get-anchored, one Get of an
# 8 KiB anchored value (blob read and re-hash). Client, server and engine
# share the process, so the profiles cover decode, commit or read, reply
# writes and the client's side of each round trip. The stores live where
# the repo benchmark keeps them: on tmpfs in /dev/shm when it exists
# (SERVE_TMPDIR), since on a disk the audit log's fsync alone takes a
# visible share of a serial Put's CPU samples, which the benchmark never
# pays.
SERVE ?= serial
SERVE_BENCH_serial := BenchmarkServePut/serial
SERVE_BENCH_burst32 := BenchmarkServePut/burst32
SERVE_BENCH_get-inline := BenchmarkServeGet/inline
SERVE_BENCH_get-anchored := BenchmarkServeGet/anchored
PROFILE_ITERS_serial := 2000
PROFILE_ITERS_burst32 := 200
PROFILE_ITERS_get-inline := 20000
PROFILE_ITERS_get-anchored := 20000
SERVE_TMPDIR := $(if $(wildcard /dev/shm),/dev/shm,$(TMPDIR))
profile-serve:
	mkdir -p $(PROFILE_DIR)
	TMPDIR=$(SERVE_TMPDIR) $(GO) test ./internal/service -run '^$$' -bench '$(SERVE_BENCH_$(SERVE))$$' -benchtime $(PROFILE_ITERS_$(SERVE))x \
		-memprofile $(PROFILE_DIR)/serve.mem.pprof -memprofilerate 1 -o $(PROFILE_DIR)/service.test
	TMPDIR=$(SERVE_TMPDIR) $(GO) test ./internal/service -run '^$$' -bench '$(SERVE_BENCH_$(SERVE))$$' -benchtime $(PROFILE_ITERS_$(SERVE))0x \
		-cpuprofile $(PROFILE_DIR)/serve.cpu.pprof -o $(PROFILE_DIR)/service.test
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 $(PROFILE_DIR)/service.test $(PROFILE_DIR)/serve.mem.pprof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 25 $(PROFILE_DIR)/service.test $(PROFILE_DIR)/serve.mem.pprof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/service.test $(PROFILE_DIR)/serve.cpu.pprof

# guard <packages> <-run alternation> [go test flags]: run the named
# tests verbosely and fail the target if they fail, if one skips itself,
# or if the pattern matches no test — SKIP and "no tests to run" exit 0,
# so a guard silenced by its environment would otherwise read as a pass.
# An alternation 'A|B|C' stays green when B no longer exists, so every
# alternative is first checked on its own against the packages' test
# names (`go test -list`): a renamed, deleted or misspelt test fails here
# instead of dropping out of the run unnoticed.
define GUARD
guard() { \
	pkgs=$$1; pat=$$2; shift 2; \
	names=$$($(GO) test $$pkgs -list '^Test' "$$@") || { echo "$$names"; exit 1; }; \
	for alt in $$(echo "$$pat" | tr '|' ' '); do \
		if ! echo "$$names" | grep '^Test' | grep -qE -- "$$alt"; then \
			echo "$@: FAIL $$pkgs -run '$$pat': '$$alt' matches no test"; exit 1; \
		fi; \
	done; \
	out=$$($(GO) test $$pkgs -run "$$pat" -count=1 -v "$$@" 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ] || echo "$$out" | grep -qE -- '--- SKIP|no tests to run'; then \
		echo "$@: FAIL $$pkgs -run '$$pat' (failed, skipped itself, or matched no test)"; exit 1; \
	fi; \
}
endef

# Every allocation guard, one package at a time, numbers printed (CI's
# "Alloc guard" step, and again under the race detector as
# `GOFLAGS=-race make alloc-guard`, where the guards on pooled paths run
# with race-aware bounds — see internal/testenv). TestMuxSteadyStateAllocs
# also holds a Mux whose children all sleep to no step and no allocation.
alloc-guard:
	@$(GUARD); \
	guard ./internal/sim 'TestSimTickAllocCeiling|TestRunReusesScratch|TestConcurrentRunsFindEverySpare|TestSparesLastOneCollection'; \
	guard ./internal/crypto/threshold 'TestMintedCertVerifyAllocs'; \
	guard './internal/crypto/sig ./internal/crypto/keyedmac' 'TestHMACAllocCeilings|TestSteadyStateAllocs'; \
	guard ./internal/wire 'TestSizeOfZeroAllocs|TestAppendPayloadZeroAllocs'; \
	guard ./internal/protocols 'TestSizeOfAllocatesNothing'; \
	guard ./internal/transport 'TestSendAllocCeiling'; \
	guard ./internal/proto 'TestMuxSteadyStateAllocs|TestSubJoinsEachPathOnce'; \
	guard ./internal/engine 'TestEngineSteadyStateAllocs|TestCommitAllocCeiling|TestCommitDealerMACs|TestCommitRingMACs'; \
	guard ./internal/acs 'TestACSAllocCeiling'; \
	guard './internal/core/wba ./internal/core/bb' 'TestIngestDropsOutOfRangePhases|TestSignBasesAreExactSizeAndUnchanged'; \
	guard ./internal/kv 'TestApplyAllocs|TestSnapshotAllocs'; \
	guard ./internal/service 'TestAuditAppendZeroAllocs|TestFrameEncodeOneExactAlloc|TestAnchoredGetReplyOneCopy|TestGetReplyBufferIsBounded|TestGetResponseMatchesEncodeResponse|TestCoreCommitAllocCeiling'

# The named tests of CI's race job, under the race detector (its `go run
# -race` smokes and whole-package runs stay in ci.yml). The lists live
# here so the same guard covers them. TestEquivalence runs every scenario
# of the equivalence corpus at GOMAXPROCS 1 and 8, the public API's
# single-instance calls included. TestWakesAreExact sits
# on the engine line: its explorer searches and experiment reports step
# concurrent simulations under the exactness check.
race-guard:
	@$(GUARD); \
	guard ./internal/sim 'TestObserversDoNotChangeTheCharge|TestConcurrentRunsFindEverySpare' -race; \
	guard ./internal/testenv/scenarios 'TestEquivalence' -race; \
	guard './internal/crypto/sig ./internal/crypto/keyedmac' 'TestHMACRingConcurrent|TestPoolConcurrent|TestSignRecordConcurrent' -race -count=10; \
	guard ./internal/crypto/threshold 'TestMintedCertConcurrentVerify' -race -count=10; \
	guard ./internal/transport 'TestClusterMatchesSimulator|TestSendBytesParity|TestOutboxBackpressure|TestRunClusterMachineErrorStartsNoNode|TestNewProtocolMachine' -race; \
	guard ./internal/transport 'TestChaosWBADecidesLikeBaseline|TestChaosBBJitterDecidesLikeBaseline' -race; \
	guard ./internal/testenv 'TestLinkScheduleIsDeterministic|TestLinkWindows' -race; \
	guard ./cmd/adaptiveba-cluster 'TestCluster' -race; \
	guard './internal/engine ./internal/harness ./internal/proto' 'TestEngineDeterminism|TestRunEngineMatchesSolo|TestSessionGroupsMatchOneSimulation|TestSessionGroupsVerifyMintedCertsOnce|TestWakesAreExact' -race; \
	guard . 'TestRunManyMatchesSolo|TestSessionGroupsCountTheCallsCacheLookups' -race; \
	guard ./internal/acs 'TestACSLateBroadcastTraffic' -race; \
	guard ./internal/engine 'TestRunACSLogConvergence|TestACSEngineLate|TestMachineBufferContract|TestReplicatedLogOverTCP|TestRunLogEmptyQueueCommitsBottom' -race; \
	guard ./internal/proto 'TestMuxMatchesSerialRouting|TestCryptoSignerIsOnePerIdentity|TestCryptoForgerySweep' -race; \
	guard ./internal/core/bb 'TestValidatorMemo' -race; \
	guard ./internal/harness 'TestParallelDeterminism|TestExperimentReportsDeterministic' -race; \
	guard ./internal/service 'TestConcurrentHistory|TestDisconnectMidBurst|TestServerUnderLoss|TestDisposedWriteNeverWedgesReads|TestPipelinedRepliesNeverGap|TestDedupWindowPassesQueuedWrite|TestBurstIsOneHandOff|TestAuditFailureStopsCore|TestRepliesNeverWakeTheWriter|TestFullSocketHandsOffToWriter|TestCloseDuringCommit|TestCommitterTenureIsOneFlush' -race

# The public package has one runtime, the multi-session engine: fail if
# the root package depends on internal/harness, directly or through
# another package. Every key comes from one trusted setup, proto.Setup:
# also fail if a non-test file outside internal/proto, internal/crypto
# and benchmark/ (which keeps its own copy of the engine's derivation)
# builds a key ring, a dealer or a Crypto itself. GOMAXPROCS is the one
# control of every worker pool, the verification cache has no off switch,
# nodes are crashed from outside, faults are injected on links by a
# test's proxy (internal/testenv), never inside a node or a server,
# every run meters its wire bytes (wire.Size), and a node's
# per-peer outbox bound is the transport's default: also fail if a
# non-test file names one of the knobs that used to duplicate those
# (REMOVED_KNOBS). Every attack is a genome compiled by
# internal/adversary/attacks (phase spam, help spam, the split vote, the
# selective finalize, the late certificate release, BB vetting
# equivocation and the flood chain): fail if a non-test file names one of
# the hand-written attacks they replaced (REPLACED_ATTACKS). Every named
# fault pattern is built by the one pattern table, attacks.Patterns: fail
# if a non-test file names one of the pattern rules it replaced
# (REPLACED_PATTERNS). A payload frames itself (wire.Body) and the
# simulator meters bytes through wire.Size: fail if a wire.Codec literal
# sets an Encode field, or if wire.Codec or sim.Config declares Encode or
# SizeOf again.
KEYGEN := sig\.NewHMACRing|sig\.NewEd25519Ring|sig\.NewCounting|proto\.NewCrypto|threshold\.New\(
REMOVED_KNOBS := TickWorkers|NoVerifyCache|WithoutVerifyCache|WithParallelVerify|CrashAfter|-tick-workers|-no-verify-cache|ChaosConfig|RecordChaos|-chaos-|MeasureBytes|WithMeasuredBytes|-measure-bytes|flush-every
REPLACED_ATTACKS := WBAPhaseSpam|BBPhaseSpam|WBAHelpSpam|WBASplitVote|SelectivePhaseLeader|LateCertRelease|WBALeader|BBVettingEquivocator|FloodChain
REPLACED_PATTERNS := adversary\.ForPattern|FirstProcesses
deps-guard:
	@deps=$$($(GO) list -deps .) || exit 1; \
	if echo "$$deps" | grep -qx 'adaptiveba/internal/harness'; then \
		echo "deps-guard: FAIL the root package depends on adaptiveba/internal/harness"; exit 1; \
	fi; \
	hits=$$(grep -rnE --include='*.go' --exclude='*_test.go' '$(KEYGEN)' . | grep -vE '^\./(internal/proto|internal/crypto|benchmark)/'); \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; echo "deps-guard: FAIL key material built outside proto.Setup"; exit 1; \
	fi; \
	hits=$$(grep -rnE --include='*.go' --exclude='*_test.go' -- '$(REMOVED_KNOBS)' .); \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; echo "deps-guard: FAIL a removed knob is back (GOMAXPROCS sizes every pool; CountOps is the only uncached suite; faults belong to the link; every run meters bytes; the outbox bound is fixed)"; exit 1; \
	fi; \
	hits=$$(grep -rnE --include='*.go' --exclude='*_test.go' -- '$(REPLACED_ATTACKS)' .); \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; echo "deps-guard: FAIL a replaced attack is back (phase and help spam are attacks.PhaseSpam and OpHelpSpam genes; the split vote and selective finalize are OpLead genes and the late certificate release an OpRelease gene, see attacks.Coalition; BB vetting equivocation is OpLead genes on BB, see attacks.Vetting; the flood chain is OpEquivocate genes on FloodSet, see attacks.WhisperChain)"; exit 1; \
	fi; \
	hits=$$(grep -rnE --include='*.go' --exclude='*_test.go' -- '$(REPLACED_PATTERNS)' .); \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; echo "deps-guard: FAIL a replaced pattern rule is back (every named fault pattern is an entry of the one table attacks.Patterns, in internal/adversary/attacks/patterns.go; look names up with attacks.PatternNamed, and take crash sets from adversary.CrashSet)"; exit 1; \
	fi; \
	doc=$$($(GO) doc ./internal/wire Codec && $(GO) doc ./internal/sim Config) || exit 1; \
	hits=$$(echo "$$doc" | grep -E '^\s+(Encode|SizeOf)\b'; grep -rnE --include='*.go' 'Encode:' .); \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; echo "deps-guard: FAIL an encoder or a byte meter is back beside its payload (a payload encodes itself through its PutBody method, wire.Body; wire.Codec holds only Decode; the simulator meters bytes with wire.Size)"; exit 1; \
	fi

# Interactive single-grid-point search with a full report.
explore:
	$(GO) run ./cmd/adaptiveba-sim -explore -protocol wba -n 9 -f 4 -generations 4 -population 8

# The replicated KV service under the race detector: server + two
# concurrent client sessions over loopback, mixed inline/anchored
# payloads, a snapshot mid-run, and a tamper-evidence walk at exit.
svc-smoke:
	$(GO) run -race ./cmd/adaptiveba-server -smoke
	$(GO) test -race ./internal/service -count=1

# Regenerate every table/figure of the paper (EXPERIMENTS.md data).
experiments:
	$(GO) run ./cmd/adaptiveba-bench -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/adaptive-sweep
	$(GO) run ./examples/byzantine-faults
	$(GO) run ./examples/replicated-log
	$(GO) run ./examples/tcp-cluster

# Every fuzz target, FUZZTIME each (CI runs make fuzz FUZZTIME=20s).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/wire -fuzz FuzzDecodePayload -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzCertRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzReaderPrimitives -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzFullRegistryRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/bb -fuzz FuzzDecodeValue -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/wba -fuzz FuzzMachineIngest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/types -fuzz FuzzBitSetOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/acs -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/acs -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME)
	$(GO) test ./internal/crypto/verifycache -fuzz FuzzCachedVerifyMatchesDirect -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -fuzz FuzzReadFrame$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -fuzz FuzzReadFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/adversary/attacks -fuzz FuzzScheduleGenome -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -fuzz FuzzDecodeAuditLog -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kv -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME)

cover:
	$(GO) test ./... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
	rm -rf $(PROFILE_DIR)
