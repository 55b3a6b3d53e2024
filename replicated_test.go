package adaptiveba

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/smr"
	"adaptiveba/internal/types"
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

// TestLogScheduleCoversLongLogs pins the tick budget of a log too long
// for sim.DefaultMaxTicks — the bound a zero MaxTicks falls back to, and
// what every run got while the budget was read before the factory set
// it: 2 500 slots at n=4 then stopped at tick 100 000 and reported an
// empty log with Agreement=true. (The real run takes about a minute, so
// the derivation is tested, not the run.)
func TestLogScheduleCoversLongLogs(t *testing.T) {
	const n, slots = 4, 2500
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("log-0"))
	if err != nil {
		t.Fatal(err)
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("log-dealer"))
	probe, err := smr.NewMachine(smr.Config{Params: params, Crypto: crypto, Tag: "log", Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	need := probe.SlotTicks() * slots
	if need <= sim.DefaultMaxTicks {
		t.Fatalf("%d slots need only %d ticks: not a long log", slots, need)
	}
	for _, inflight := range []int{0, 4} {
		stride, budget, err := logSchedule(params, crypto, slots, inflight)
		if err != nil {
			t.Fatal(err)
		}
		if budget < need {
			t.Errorf("inflight=%d: budget %d ticks cannot hold %d sequential slots (%d ticks)", inflight, budget, slots, need)
		}
		want := types.Tick(0)
		if inflight > 0 {
			want = (probe.SlotTicks() + types.Tick(inflight) - 1) / types.Tick(inflight)
		}
		if stride != want {
			t.Errorf("inflight=%d: stride %d, want %d", inflight, stride, want)
		}
	}
}
