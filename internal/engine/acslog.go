// Batched replicated-log driver: the engine's session scheduler applied
// to BKR ACS rounds. Where RunLog commits ONE command per slot through
// a single rotating proposer, RunACSLog commits a SUBSET OF n BATCHES
// per slot — every process proposes its next `batch` commands, the
// round's n broadcasts + n binary votes (internal/acs) decide which
// proposals land, and the winning batches flatten into the log in
// (round, proposer-ID, batch-position) order. Throughput per slot
// scales as n×batch while the per-command word cost is amortized by the
// batch size; total order still follows from the static slot schedule,
// so decisions remain byte-identical at every window size and worker
// count.
package engine

import (
	"fmt"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/kv"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

// ACSRound summarizes one committed ACS round.
type ACSRound struct {
	Round int
	// Subset is how many proposers' batches committed (≥ n−t whenever
	// the round converged inside the fault model).
	Subset int
	// Requests is the number of commands the round committed.
	Requests int
}

// ACSLogReport is the outcome of a batched (ACS) log run. Its Entries
// are the winning batches of every round, flattened one entry per
// command in (round, proposer, position) order.
type ACSLogReport struct {
	LogReport
	Rounds []ACSRound
	// SubsetMin is the smallest committed subset over all converged
	// rounds (n+1 if no round converged).
	SubsetMin int
}

// RunACSLog drives a batched replicated log of `rounds` ACS rounds:
// in round r every process proposes its next `batch` commands from
// queues[proposer], the round commits a ≥ n−t subset of the n proposals,
// and committed commands replay through the kv state machine.
func RunACSLog(cfg Config, queues [][]types.Value, rounds, batch int) (*ACSLogReport, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("%w: need at least one round, got %d", ErrConfig, rounds)
	}
	if batch < 1 {
		return nil, fmt.Errorf("%w: batch must be >= 1, got %d", ErrConfig, batch)
	}
	if cfg.N < 1 || len(queues) > cfg.N {
		return nil, fmt.Errorf("%w: %d queues for n=%d", ErrConfig, len(queues), cfg.N)
	}
	reqs := make([]Request, rounds)
	pos := make([]int, cfg.N)
	for r := range reqs {
		inputs := make([]types.Value, cfg.N)
		for p := 0; p < cfg.N; p++ {
			var cmds []types.Value
			if p < len(queues) {
				q := queues[p]
				for len(cmds) < batch && pos[p] < len(q) {
					cmds = append(cmds, q[pos[p]])
					pos[p]++
				}
			}
			// An empty batch still encodes non-⊥, so a drained proposer
			// keeps winning its vote instead of reading as faulty.
			inputs[p] = acs.EncodeBatch(cmds)
		}
		reqs[r] = Request{Kind: protocols.ACS, Inputs: inputs}
	}

	out := &ACSLogReport{Rounds: make([]ACSRound, rounds), SubsetMin: cfg.N + 1}
	err := out.drive(cfg, reqs, func(r int, sess *SessionResult) error {
		round := &out.Rounds[r]
		round.Round = r
		if !sess.Agreement || !sess.AllDecided {
			return nil
		}
		result, err := acs.DecodeResult(sess.Decision)
		if err != nil {
			return fmt.Errorf("engine: round %d decided a malformed result: %w", r, err)
		}
		round.Subset = result.Committed.Count()
		out.SubsetMin = min(out.SubsetMin, round.Subset)
		proposers := result.Committed.Members()
		for bi, enc := range result.Batches {
			b, err := acs.DecodeBatch(enc)
			if err != nil {
				return fmt.Errorf("engine: round %d batch %d malformed: %w", r, bi, err)
			}
			var proposer types.ProcessID
			if bi < len(proposers) {
				proposer = proposers[bi]
			}
			for _, cmd := range b.Cmds {
				out.Entries = append(out.Entries, kv.Entry{
					Slot:     len(out.Entries),
					Proposer: proposer,
					Command:  cmd.Clone(),
				})
				round.Requests++
			}
		}
		out.Committed += round.Requests
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
