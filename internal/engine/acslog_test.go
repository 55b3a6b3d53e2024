package engine

import (
	"fmt"
	"testing"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

func acsQueues(n, perProc int) [][]types.Value {
	queues := make([][]types.Value, n)
	for i := range queues {
		for j := 0; j < perProc; j++ {
			queues[i] = append(queues[i], types.Value(fmt.Sprintf("SET k%d-%d p%d", i, j, i)))
		}
	}
	return queues
}

// TestRunACSLogConvergence drives the batched log end to end: identical
// entries, committed counts, and kv state hash at every window size and
// worker count; failure-free rounds commit all n batches.
func TestRunACSLogConvergence(t *testing.T) {
	const n, rounds, batch = 5, 3, 2
	var serial *ACSLogReport
	var serialFP string
	for _, run := range []struct {
		window, workers int
	}{{1, 1}, {2, 1}, {2, 8}} {
		queues := acsQueues(n, rounds*batch)
		rep, err := RunACSLog(Config{N: n, Inflight: run.window, TickWorkers: run.workers}, queues, rounds, batch)
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
		if len(rep.RejectedCommands) != 0 {
			t.Errorf("W=%d workers=%d: kv rejected %v", run.window, run.workers, rep.RejectedCommands)
		}
		fp := rep.Engine.Fingerprint()
		if serial == nil {
			serial, serialFP = rep, fp
			continue
		}
		if rep.StateHash != serial.StateHash {
			t.Errorf("W=%d workers=%d: state hash %s != serial %s", run.window, run.workers, rep.StateHash, serial.StateHash)
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

// TestRunACSLogCrashFaults pins the fault-grid behavior: with f crashed
// processes every round still commits an ≥ n−t subset that excludes
// exactly the crashed proposers.
func TestRunACSLogCrashFaults(t *testing.T) {
	const n, rounds, batch = 5, 2, 2
	rep, err := RunACSLog(Config{N: n, F: 2, Inflight: 2}, acsQueues(n, rounds*batch), rounds, batch)
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
// ≥ n−t subset with byte-identical decisions across worker counts.
func TestACSEngineLate(t *testing.T) {
	const n = 5
	params, _ := types.NewParams(n)
	var serialFP string
	for _, workers := range []int{1, 4} {
		rep, err := RunACSLog(Config{
			N:           n,
			TickWorkers: workers,
			Adversary: func(maxTicks types.Tick) sim.Adversary {
				// Replay until the budget runs out: stale BB traffic keeps
				// arriving long after the vote boundary retires the
				// broadcast sessions.
				return adversary.NewReplay(7, maxTicks, 1)
			},
		}, acsQueues(n, 2), 1, 2)
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
	queues := acsQueues(n, batch)
	acsRep, err := RunACSLog(Config{N: n}, queues, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	bbRep, err := RunLog(Config{N: n}, acsQueues(n, 1), 1)
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
	if _, err := RunACSLog(Config{N: 5}, nil, 0, 1); err == nil {
		t.Error("rounds=0 accepted")
	}
	if _, err := RunACSLog(Config{N: 5}, nil, 1, 0); err == nil {
		t.Error("batch=0 accepted")
	}
	if _, err := RunACSLog(Config{N: 3}, make([][]types.Value, 9), 1, 1); err == nil {
		t.Error("more queues than processes accepted")
	}
	if _, err := RunACSLog(Config{}, nil, 1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RunLog(Config{N: 5}, nil, 0); err == nil {
		t.Error("log: slots=0 accepted")
	}
	if _, err := RunLog(Config{N: 3}, make([][]types.Value, 9), 1); err == nil {
		t.Error("log: more queues than processes accepted")
	}
	if _, err := RunLog(Config{}, nil, 1); err == nil {
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
	rep, err := Run(Config{N: n, Inflight: 2}, []Request{
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
