package adaptiveba

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func queuesFor(n, perReplica int) [][][]byte {
	queues := make([][][]byte, n)
	for i := range queues {
		for c := 0; c < perReplica; c++ {
			queues[i] = append(queues[i], []byte(fmt.Sprintf("cmd-%d-%d", i, c)))
		}
	}
	return queues
}

func TestReplicateLogFailureFree(t *testing.T) {
	res, err := ReplicateLogContext(bg, 5, queuesFor(5, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement {
		t.Fatal("replicas diverged")
	}
	if len(res.Entries) != 7 {
		t.Fatalf("got %d entries", len(res.Entries))
	}
	for s, e := range res.Entries {
		if e.Slot != s || e.Proposer != s%5 {
			t.Errorf("entry %d: %+v", s, e)
		}
		if e.Command == nil {
			t.Errorf("slot %d skipped in failure-free run", s)
		}
	}
	if !bytes.Equal(res.Entries[5].Command, []byte("cmd-0-1")) {
		t.Errorf("slot 5 (p0's second turn) committed %q", res.Entries[5].Command)
	}
	if res.WordsPerCommit <= 0 || res.WordsPerCommit > float64(14*5) {
		t.Errorf("words per commit = %.1f, want linear in n", res.WordsPerCommit)
	}
}

func TestReplicateLogWithCrashedProposer(t *testing.T) {
	res, err := ReplicateLogContext(bg, 5, queuesFor(5, 1), 5, WithFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement {
		t.Fatal("replicas diverged")
	}
	// p1 crashed: its slot (slot 1) is skipped; the rest commit.
	for _, e := range res.Entries {
		if e.Proposer == 1 && e.Command != nil {
			t.Errorf("slot %d committed from crashed p1", e.Slot)
		}
		if e.Proposer != 1 && e.Command == nil {
			t.Errorf("slot %d skipped with live proposer", e.Slot)
		}
	}
}

func TestReplicateLogValidation(t *testing.T) {
	if _, err := ReplicateLogContext(bg, 5, queuesFor(4, 1), 3); !errors.Is(err, ErrInputs) {
		t.Errorf("queue count: %v", err)
	}
	if _, err := ReplicateLogContext(bg, 5, queuesFor(5, 1), 0); !errors.Is(err, ErrInputs) {
		t.Errorf("zero slots: %v", err)
	}
	if _, err := ReplicateLogContext(bg, 2, queuesFor(2, 1), 1); !errors.Is(err, ErrOptions) {
		t.Errorf("bad n: %v", err)
	}
}

// TestReplicateLogHonorsOptions pins two options the log once ignored: a
// fault pattern the shared deployment cannot run fails with ErrOptions,
// as it does for RunMany and ReplicateBatchContext, instead of silently
// running a crash; and WithTrace streams the run's messages.
func TestReplicateLogHonorsOptions(t *testing.T) {
	if _, err := ReplicateLogContext(bg, 5, queuesFor(5, 1), 3, WithPattern(FaultReplay), WithFaults(1)); !errors.Is(err, ErrOptions) {
		t.Errorf("replay pattern: err = %v, want ErrOptions", err)
	}
	var trace bytes.Buffer
	if _, err := ReplicateLogContext(bg, 5, queuesFor(5, 1), 3, WithTrace(&trace)); err != nil {
		t.Fatal(err)
	}
	if trace.Len() == 0 {
		t.Error("WithTrace wrote nothing")
	}
}
