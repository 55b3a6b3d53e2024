// Batched replicated log: the public surface over the BKR-style ACS
// rounds of internal/acs and the engine driver internal/engine.RunACSLog.
// Where ReplicateLogContext commits one command per slot through a single
// rotating proposer, ReplicateBatchContext commits a ≥ n−t subset of n
// proposer batches per slot — n×batch commands where the single-proposer
// log commits one — while the per-command word cost is amortized by the
// batch size.
package adaptiveba

import (
	"context"
	"fmt"

	"adaptiveba/internal/engine"
)

// WithBatch sets how many commands each proposer packs into its per-round
// batch for ReplicateBatchContext (default 1). Larger batches amortize
// the round's word cost over more commands without changing which
// proposers' batches commit.
func WithBatch(b int) Option { return func(o *options) { o.batch = b } }

// BatchRound summarizes one committed ACS round of a batched log run.
type BatchRound struct {
	// Round is the round index (the log slot the round filled).
	Round int
	// Subset is how many of the n proposals committed (≥ n−t whenever
	// the run converged inside the fault model).
	Subset int
	// Requests is the number of commands the round committed.
	Requests int
}

// BatchResult reports a batched replicated-log run.
type BatchResult struct {
	// Entries is the total order every correct replica committed: the
	// winning batches of every round flattened one entry per command in
	// (round, proposer ID, batch position) order.
	Entries []LogEntry
	// Rounds gives the per-round committed subset and request count.
	Rounds []BatchRound
	// Agreement confirms every round reached agreement with every
	// correct replica decided.
	Agreement bool
	// Committed counts committed commands across all rounds.
	Committed int
	// SubsetMin is the smallest committed subset over all rounds.
	SubsetMin int
	// StateHash digests the kv state machine after replaying the log —
	// equal across runs iff the committed logs are equivalent.
	StateHash string
	// Words / Messages are the run's total communication cost (sends by
	// correct processes).
	Words    int64
	Messages int64
	// WordsPerCommit is the amortized cost per committed command.
	WordsPerCommit float64
}

// ReplicateBatchContext runs a batched replicated log: `rounds`
// consecutive ACS rounds in which every replica proposes the next
// WithBatch(b) commands of its own queue (queues[i] feeds replica i), the
// round's n concurrent broadcasts and n binary votes decide which
// proposals land, and the winning batches flatten into one total order.
// Compared to ReplicateLogContext the commit throughput per slot is
// n×batch instead of 1, at the same per-round word budget — the paper's
// adaptive costs, amortized over every proposer's batch.
//
// WithInflight(w) pipelines the rounds through the engine's admission
// window; committed entries and the state hash are identical at every
// window size. Only crash fault patterns are supported (FaultCrash,
// FaultCrashLeader). The context cancels the run promptly (at tick
// granularity) with ErrCanceled.
func ReplicateBatchContext(ctx context.Context, n int, queues [][][]byte, rounds int, opts ...Option) (*BatchResult, error) {
	merged := buildOptions(n, opts)
	cfg, err := engineConfig(ctx, merged, false)
	if err != nil {
		return nil, err
	}
	batch := merged.batch
	if batch == 0 {
		batch = 1
	}
	if batch < 0 {
		return nil, fmt.Errorf("%w: batch size %d", ErrOptions, batch)
	}
	if len(queues) != n {
		return nil, fmt.Errorf("%w: need %d queues, got %d", ErrInputs, n, len(queues))
	}
	if rounds < 1 {
		return nil, fmt.Errorf("%w: need at least one round", ErrInputs)
	}

	rep, err := engine.RunACSLog(cfg, cloneQueues(queues), rounds, batch)
	if err != nil {
		return nil, mapCanceled(ctx, err)
	}

	stateHash, _ := rep.Replay()
	out := &BatchResult{
		Entries:   logEntries(rep.Entries),
		Agreement: rep.Converged,
		Committed: rep.Committed,
		SubsetMin: rep.SubsetMin,
		StateHash: stateHash,
		Words:     rep.Engine.Metrics.Honest.Words,
		Messages:  rep.Engine.Metrics.Honest.Messages,
	}
	for _, r := range rep.Rounds {
		out.Rounds = append(out.Rounds, BatchRound{Round: r.Round, Subset: r.Subset, Requests: r.Requests})
	}
	if out.Committed > 0 {
		out.WordsPerCommit = float64(out.Words) / float64(out.Committed)
	}
	return out, nil
}
