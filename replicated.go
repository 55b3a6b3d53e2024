package adaptiveba

import (
	"context"
	"fmt"

	"adaptiveba/internal/engine"
	"adaptiveba/internal/kv"
	"adaptiveba/internal/types"
)

// LogEntry is one slot of a replicated log.
type LogEntry struct {
	// Slot is the position in the total order.
	Slot int
	// Proposer is the replica whose turn the slot was.
	Proposer int
	// Command is the committed command; nil marks a skipped slot (the
	// proposer was faulty or had nothing to propose).
	Command []byte
}

// LogResult reports a replicated-log run.
type LogResult struct {
	// Entries is the total order every correct replica committed.
	Entries []LogEntry
	// Agreement confirms every slot reached agreement with every correct
	// replica decided: all correct replicas built the identical log.
	Agreement bool
	// Words / Messages are the run's total communication cost.
	Words    int64
	Messages int64
	// WordsPerCommit is the cost per non-skipped slot.
	WordsPerCommit float64
}

// ReplicateLogContext runs a totally-ordered replicated log over the
// adaptive Byzantine Broadcast: `slots` consecutive slots with rotating
// proposers, where replica i proposes the commands of queues[i] in its
// own slots. It demonstrates the paper's payoff at the system level — a
// failure-free deployment commits each command for O(n) words instead
// of Θ(n²).
//
// WithInflight(w) pipelines the slots through the engine's admission
// window: slot s+1's broadcast starts while slot s may still be running
// its fallback, without changing any committed entry or word count.
// Only crash fault patterns are supported (FaultCrash,
// FaultCrashLeader). The context cancels the run promptly with
// ErrCanceled.
func ReplicateLogContext(ctx context.Context, n int, queues [][][]byte, slots int, opts ...Option) (*LogResult, error) {
	cfg, err := engineConfig(ctx, buildOptions(n, opts), false)
	if err != nil {
		return nil, err
	}
	if len(queues) != n {
		return nil, fmt.Errorf("%w: need %d queues, got %d", ErrInputs, n, len(queues))
	}
	if slots < 1 {
		return nil, fmt.Errorf("%w: need at least one slot", ErrInputs)
	}

	rep, err := engine.RunLog(cfg, cloneQueues(queues), slots)
	if err != nil {
		return nil, mapCanceled(ctx, err)
	}
	out := &LogResult{
		Entries:   logEntries(rep.Entries),
		Agreement: rep.Converged,
		Words:     rep.Engine.Metrics.Honest.Words,
		Messages:  rep.Engine.Metrics.Honest.Messages,
	}
	if rep.Committed > 0 {
		out.WordsPerCommit = float64(out.Words) / float64(rep.Committed)
	}
	return out, nil
}

// cloneQueues copies the callers' command queues into protocol values.
func cloneQueues(queues [][][]byte) [][]types.Value {
	qs := make([][]types.Value, len(queues))
	for i, q := range queues {
		qs[i] = make([]types.Value, 0, len(q))
		for _, c := range q {
			qs[i] = append(qs[i], types.Value(c).Clone())
		}
	}
	return qs
}

// logEntries copies a committed log out of the engine.
func logEntries(entries []kv.Entry) []LogEntry {
	var out []LogEntry
	for _, e := range entries {
		out = append(out, LogEntry{
			Slot:     e.Slot,
			Proposer: int(e.Proposer),
			Command:  append([]byte(nil), e.Command...),
		})
	}
	return out
}
