package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/kv"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/transport"
	"adaptiveba/internal/types"
)

// oneCommandEach gives proposer p the single command "SET k<p> <p>".
func oneCommandEach(n int) [][]types.Value {
	queues := make([][]types.Value, n)
	for p := range queues {
		queues[p] = []types.Value{types.Value(fmt.Sprintf("SET k%d %d", p, p))}
	}
	return queues
}

// TestRunLogEmptyQueueCommitsBottom: a proposer whose queue is drained
// broadcasts ⊥ in its slot, which commits as a skipped slot — not a
// phantom command that the kv state machine then rejects.
func TestRunLogEmptyQueueCommitsBottom(t *testing.T) {
	const n, slots = 5, 7
	rep, err := RunLog(Config{N: n}, oneCommandEach(n), slots)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("log did not converge")
	}
	if rep.Committed != n {
		t.Errorf("committed %d commands from %d queued", rep.Committed, n)
	}
	for s, e := range rep.Entries {
		if drained := s >= n; drained != e.Command.IsBottom() {
			t.Errorf("slot %d (proposer %v, queue drained %t) committed %v", s, e.Proposer, drained, e.Command)
		}
	}
	if len(rep.RejectedCommands) != 0 {
		t.Errorf("kv rejected %v", rep.RejectedCommands)
	}
}

// TestLogScheduleCoversLongLogs pins the plan of a log too long for
// sim.DefaultMaxTicks, the bound a zero budget falls back to (a budget
// once read before it was set stopped a 2 500-slot log at tick 100 000
// with an empty log and Agreement=true): the stride is ⌈D/W⌉ and the
// budget covers slots·stride + D, which is slots·D + D at W=1. The run
// itself takes about a minute, so the plan is tested, not the run.
func TestLogScheduleCoversLongLogs(t *testing.T) {
	const n, slots = 4, 2500
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	d := bb.MaxTicks(params, 0, 0)
	if d*slots <= sim.DefaultMaxTicks {
		t.Fatalf("%d slots need only %d ticks: not a long log", slots, d*slots)
	}
	for _, w := range []int{1, 4} {
		sched, err := plan(&builder{params: params, reqs: logRequests(n, nil, slots)}, w)
		if err != nil {
			t.Fatal(err)
		}
		if sched.duration != d {
			t.Errorf("W=%d: slot duration %d, want bb.MaxTicks = %d", w, sched.duration, d)
		}
		if want := (d + types.Tick(w) - 1) / types.Tick(w); sched.stride != want {
			t.Errorf("W=%d: stride %d, want %d", w, sched.stride, want)
		}
		if need := slots*sched.stride + d; sched.budget < need {
			t.Errorf("W=%d: budget %d ticks cannot hold %d slots at stride %d (%d ticks)", w, sched.budget, slots, sched.stride, need)
		}
	}
}

// tcpLogTick is the synchrony bound δ: a message sent in tick k must reach
// its peer before the peer's tick k+1. The nodes' tickers start at
// different instants after the ready barrier, so that skew plus a tick's
// processing plus delivery must fit in one tick. At 10 ms, one run under a
// full `go test ./...` on a 2-vCPU host lost a write (k2 missing), which
// is what a slot deciding ⊥ after a late message looks like; it did not
// recur in 55 loaded reruns. 25 ms is the transport's own default, which
// its docs call generous on loopback.
const tcpLogTick = 25 * time.Millisecond

// TestReplicatedLogOverTCP hosts the engine's log on real sockets: four
// nodes on loopback TCP each run their procMachine over three BB slots
// through a window of two, and every node's output must equal, byte for
// byte, what sim.Run produces for the same machines and crypto. The
// committed commands then replay through the kv state machine.
func TestReplicatedLogOverTCP(t *testing.T) {
	testenv.NoLeaks(t)
	const n, slots, window = 4, 3, 2
	crypto, err := transport.Setup(n, "tcp-log")
	if err != nil {
		t.Fatal(err)
	}
	params := crypto.Params
	sched, err := plan(&builder{params: params, crypto: crypto, tag: "tcp-log", reqs: logRequests(n, oneCommandEach(n), slots)}, window)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := sim.Run(sim.Config{
		Params: params, Crypto: crypto, MaxTicks: sched.budget,
		Factory: func(id types.ProcessID) proto.Machine { return sched.root(id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.TimedOut || !ref.AllDecided() {
		t.Fatalf("simulator reference did not finish (timed out %t)", ref.TimedOut)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	roots := make([]*procMachine, n)
	res, err := transport.RunCluster(ctx, transport.ClusterOpts{
		Node: transport.Config{Params: params, Crypto: crypto, TickInterval: tcpLogTick},
		Machine: func(id types.ProcessID) (proto.Machine, error) {
			roots[id] = sched.root(id)
			return roots[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Decisions {
		if want := ref.Decisions[types.ProcessID(i)]; !out.Equal(want) {
			t.Errorf("node %d output %x over TCP, %x on the simulator", i, out, want)
		}
	}

	entries := make([]kv.Entry, slots)
	for k := range entries {
		entries[k].Slot = k
		entries[k].Command, _ = roots[0].children[k].Output()
	}
	store, rejected := kv.Replay(entries)
	if len(rejected) != 0 {
		t.Errorf("kv rejected %v", rejected)
	}
	for p := 0; p < slots; p++ {
		if v, ok := store.Get(fmt.Sprintf("k%d", p)); !ok || v != fmt.Sprint(p) {
			t.Errorf("k%d = %q, %t after the TCP log", p, v, ok)
		}
	}
}
