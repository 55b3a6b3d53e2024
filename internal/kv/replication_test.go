package kv_test

import (
	"fmt"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/kv"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// TestEndToEndReplication runs the whole stack: commands → the engine's
// replicated log over the adaptive BB → kv state machines, with crashed
// replica p4, asserting that every correct replica's own log replays to
// the state the run reports.
func TestEndToEndReplication(t *testing.T) {
	const n, slots = 5, 10
	queues := make([][]types.Value, n)
	for id := range queues {
		queues[id] = []types.Value{
			types.Value(fmt.Sprintf("SET key%d %d", id, id)),
			types.Value(fmt.Sprintf("CAS key%d %d updated", id, id)),
		}
	}
	rep, err := engine.RunLog(engine.Config{
		N:         n,
		Adversary: func(types.Tick) sim.Adversary { return adversary.NewCrash(4) },
	}, queues, slots)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("log did not converge")
	}
	if len(rep.RejectedCommands) != 0 {
		t.Errorf("kv rejected %v", rep.RejectedCommands)
	}
	want, _ := kv.Replay(rep.Entries)
	// p4 crashed: its keys never appear; the others' do and were CASed.
	if _, ok := want.Get("key4"); ok {
		t.Error("crashed replica's key committed")
	}
	for id := 0; id < 4; id++ {
		if v, _ := want.Get(fmt.Sprintf("key%d", id)); v != "updated" {
			t.Errorf("key%d = %q, want updated", id, v)
		}
	}
	if want.Hash() != rep.StateHash {
		t.Errorf("StateHash %s, replayed entries hash to %s", rep.StateHash, want.Hash())
	}
	for id := types.ProcessID(0); id < 4; id++ {
		entries := make([]kv.Entry, slots)
		for k, s := range rep.Engine.Sessions {
			entries[k] = kv.Entry{Slot: k, Command: s.Decisions[id]}
		}
		if store, _ := kv.Replay(entries); store.Hash() != rep.StateHash {
			t.Errorf("replica %v's state diverged", id)
		}
	}
}
