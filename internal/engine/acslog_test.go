package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/testenv/scenarios"
	"adaptiveba/internal/types"
)

// TestRunACSLogConvergence drives the batched log end to end: identical
// entries, committed counts, and kv state hash at every window size and
// GOMAXPROCS; failure-free rounds commit all n batches.
func TestRunACSLogConvergence(t *testing.T) {
	const n, rounds, batch = 5, 3, 2
	var serial *engine.ACSLogReport
	var serialFP, serialHash string
	for _, run := range []struct {
		window, workers int
	}{{1, 1}, {2, 1}, {2, 8}} {
		testenv.Procs(t, run.workers)
		queues := scenarios.ACSQueues(n, rounds*batch)
		rep, err := engine.RunACSLog(engine.Config{N: n, Inflight: run.window}, queues, rounds, batch)
		if err != nil {
			t.Fatalf("W=%d workers=%d: %v", run.window, run.workers, err)
		}
		if !rep.Converged {
			t.Fatalf("W=%d workers=%d: log did not converge", run.window, run.workers)
		}
		if got, want := rep.Committed, n*rounds*batch; got != want {
			t.Errorf("W=%d workers=%d: committed %d commands, want %d", run.window, run.workers, got, want)
		}
		if rep.SubsetMin != n {
			t.Errorf("W=%d workers=%d: min subset %d, want %d (failure-free)", run.window, run.workers, rep.SubsetMin, n)
		}
		hash, rejected := rep.Replay()
		if len(rejected) != 0 {
			t.Errorf("W=%d workers=%d: kv rejected %v", run.window, run.workers, rejected)
		}
		fp := rep.Engine.Fingerprint()
		if serial == nil {
			serial, serialFP, serialHash = rep, fp, hash
			continue
		}
		if hash != serialHash {
			t.Errorf("W=%d workers=%d: state hash %s != serial %s", run.window, run.workers, hash, serialHash)
		}
		if fp != serialFP {
			t.Errorf("W=%d workers=%d: fingerprint differs from serial run", run.window, run.workers)
		}
		if len(rep.Entries) != len(serial.Entries) {
			t.Fatalf("W=%d workers=%d: %d entries != serial %d", run.window, run.workers, len(rep.Entries), len(serial.Entries))
		}
		for i := range rep.Entries {
			if !rep.Entries[i].Command.Equal(serial.Entries[i].Command) {
				t.Errorf("W=%d workers=%d: entry %d differs", run.window, run.workers, i)
			}
		}
	}
}

// TestSeedIsTheSigningDomain: two runs under one key set that differ
// only in Seed sign in different domains, so one run's signatures and
// certificates do not verify in the other: their first BB sender step
// differs on the wire. The tag enters only signature bytes, so the runs
// decide, cost and commit the same. That holds whether each run builds
// its own suite from the keys or both share one built suite, as a
// service Core's flushes do (each with its first slot as the seed), and
// sharing the suite changes no byte a run sends.
func TestSeedIsTheSigningDomain(t *testing.T) {
	const n = 4
	keys := proto.Derived("domain-ring", "domain-dealer")
	suite := func() *proto.Crypto {
		c, err := engine.NewCrypto(n, 0, keys)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	reg := protocols.Registry()
	run := func(seed int64, crypto *proto.Crypto) ([]byte, *engine.ACSLogReport) {
		var sender []byte
		var encErr error
		rep, err := engine.RunACSLog(engine.Config{
			N: n, Inflight: 1, Seed: seed, Crypto: crypto,
			OnSend: func(_ types.Tick, m sim.Message, _ bool) {
				if sender == nil && m.Payload.Type() == "bb/sender" {
					sender, encErr = reg.EncodePayload(m.Payload)
				}
			},
		}, scenarios.ACSQueues(n, 1), 1, 1)
		if err != nil || encErr != nil {
			t.Fatalf("seed %d: %v %v", seed, err, encErr)
		}
		if sender == nil {
			t.Fatalf("seed %d: no BB sender step was sent", seed)
		}
		return sender, rep
	}
	shared := suite()
	for _, tc := range []struct {
		name   string
		crypto func() *proto.Crypto
	}{
		{"a suite per run", suite},
		{"one shared suite", func() *proto.Crypto { return shared }},
	} {
		a, ra := run(1, tc.crypto())
		b, rb := run(2, tc.crypto())
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 sign the BB sender step identically (%x): one run's signatures verify in the other", tc.name, a)
		}
		ha, _ := ra.Replay()
		hb, _ := rb.Replay()
		if ra.Engine.Fingerprint() != rb.Engine.Fingerprint() || ha != hb {
			t.Errorf("%s: the seed moved more than signatures:\n%s\n%s", tc.name, ra.Engine.Fingerprint(), rb.Engine.Fingerprint())
		}
		if own, _ := run(1, suite()); !bytes.Equal(a, own) {
			t.Errorf("%s: seed 1 sends %x, a fresh suite of the same keys %x", tc.name, a, own)
		}
	}
}

// TestRunACSLogCrashFaults pins the fault-grid behavior: with f crashed
// processes every round still commits an ≥ n−t subset that excludes
// exactly the crashed proposers.
func TestRunACSLogCrashFaults(t *testing.T) {
	const n, rounds, batch = 5, 2, 2
	rep, err := engine.RunACSLog(engine.Config{N: n, F: 2, Inflight: 2}, scenarios.ACSQueues(n, rounds*batch), rounds, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("log did not converge")
	}
	params, _ := types.NewParams(n)
	if min := params.N - params.T; rep.SubsetMin < min {
		t.Errorf("min subset %d < n-t = %d", rep.SubsetMin, min)
	}
	// Crashed proposers 1..2 contribute nothing; the other 3 commit full
	// batches every round.
	if got, want := rep.Committed, (n-2)*rounds*batch; got != want {
		t.Errorf("committed %d commands, want %d", got, want)
	}
	for _, e := range rep.Entries {
		if e.Proposer == 1 || e.Proposer == 2 {
			t.Errorf("entry %d attributed to crashed proposer %v", e.Slot, e.Proposer)
		}
	}
}

// TestACSEngineLate is the late-accounting guard: a replay adversary
// re-sending recorded broadcast-stage traffic past the round's vote
// boundary hits retired "b<i>" sessions inside the ACS machines, which
// must surface in EngineLate — and the round must still commit an
// ≥ n−t subset with byte-identical decisions across GOMAXPROCS.
func TestACSEngineLate(t *testing.T) {
	const n = 5
	params, _ := types.NewParams(n)
	var serialFP string
	for _, workers := range []int{1, 4} {
		testenv.Procs(t, workers)
		rep, err := engine.RunACSLog(engine.Config{
			N: n,
			Adversary: func(maxTicks types.Tick) sim.Adversary {
				// Replay until the budget runs out: stale BB traffic keeps
				// arriving long after the vote boundary retires the
				// broadcast sessions.
				return adversary.NewReplay(7, maxTicks, 1)
			},
		}, scenarios.ACSQueues(n, 2), 1, 2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Converged {
			t.Fatalf("workers=%d: round did not converge", workers)
		}
		if min := params.N - params.T; rep.SubsetMin < min {
			t.Errorf("workers=%d: subset %d < n-t = %d", workers, rep.SubsetMin, min)
		}
		if late := rep.Engine.Metrics.EngineLate; late == 0 {
			t.Errorf("workers=%d: replayed broadcast traffic did not surface in EngineLate", workers)
		}
		fp := rep.Engine.Fingerprint()
		if workers == 1 {
			serialFP = fp
		} else if fp != serialFP {
			t.Errorf("workers=%d: fingerprint differs from serial run (adversarial run must stay deterministic)", workers)
		}
	}
}

// TestRunACSLogThroughput pins the headline claim at a small scale: per
// log slot, the ACS round commits n×batch commands where the BB log
// commits one.
func TestRunACSLogThroughput(t *testing.T) {
	const n, batch = 5, 4
	queues := scenarios.ACSQueues(n, batch)
	acsRep, err := engine.RunACSLog(engine.Config{N: n}, queues, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	bbRep, err := engine.RunLog(engine.Config{N: n}, scenarios.ACSQueues(n, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if acsRep.Committed != n*batch || bbRep.Committed != 1 {
		t.Fatalf("per-slot commits: acs=%d bb=%d, want %d and 1", acsRep.Committed, bbRep.Committed, n*batch)
	}
	if ratio := acsRep.Committed / bbRep.Committed; ratio < n/2 {
		t.Errorf("requests-per-slot ratio %d < n/2 = %d", ratio, n/2)
	}
}

// TestRunACSLogRejectsBadConfig covers the argument validation of both
// log drivers.
func TestRunACSLogRejectsBadConfig(t *testing.T) {
	if _, err := engine.RunACSLog(engine.Config{N: 5}, nil, 0, 1); err == nil {
		t.Error("rounds=0 accepted")
	}
	if _, err := engine.RunACSLog(engine.Config{N: 5}, nil, 1, 0); err == nil {
		t.Error("batch=0 accepted")
	}
	if _, err := engine.RunACSLog(engine.Config{N: 3}, make([][]types.Value, 9), 1, 1); err == nil {
		t.Error("more queues than processes accepted")
	}
	if _, err := engine.RunACSLog(engine.Config{}, nil, 1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := engine.RunLog(engine.Config{N: 5}, nil, 0); err == nil {
		t.Error("log: slots=0 accepted")
	}
	if _, err := engine.RunLog(engine.Config{N: 3}, make([][]types.Value, 9), 1); err == nil {
		t.Error("log: more queues than processes accepted")
	}
	if _, err := engine.RunLog(engine.Config{}, nil, 1); err == nil {
		t.Error("log: n=0 accepted")
	}
}

// TestEngineACSSessionKind runs ACS sessions through the generic engine
// entry point: decisions decode as acs/result frames and agreement
// holds per session.
func TestEngineACSSessionKind(t *testing.T) {
	const n = 5
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = acs.EncodeBatch([]types.Value{types.Value(fmt.Sprintf("SET a%d 1", i))})
	}
	rep, err := engine.Run(engine.Config{N: n, Inflight: 2}, []engine.Request{
		{Kind: protocols.ACS, Inputs: inputs},
		{Kind: protocols.ACS, Inputs: inputs},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Sessions {
		if !s.Agreement || !s.AllDecided {
			t.Fatalf("session %s: agreement=%t allDecided=%t", s.Name, s.Agreement, s.AllDecided)
		}
		result, err := acs.DecodeResult(s.Decision)
		if err != nil {
			t.Fatalf("session %s: %v", s.Name, err)
		}
		if result.Committed.Count() != n {
			t.Errorf("session %s: committed %d, want %d", s.Name, result.Committed.Count(), n)
		}
	}
}
