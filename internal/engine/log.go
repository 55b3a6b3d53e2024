// Pipelined replicated-log driver: the engine's session scheduler
// applied to SMR. Each log slot is one BB session whose designated
// sender is the rotating proposer p_{s mod n}; with Inflight=W, slot
// s+1 starts ceil(D/W) ticks after slot s — while slot s may still be
// deep in its fallback — instead of waiting the full worst-case slot
// duration D. Agreement per slot is BB agreement, total order follows
// from the fixed slot schedule, and throughput multiplies by up to W
// without changing any per-slot decision.
package engine

import (
	"fmt"

	"adaptiveba/internal/kv"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

// LogReport is the outcome of a replicated-log run.
type LogReport struct {
	Engine *Report
	// Entries is the committed log, in slot order (⊥ marks slots whose
	// proposer was faulty or had nothing to propose).
	Entries []kv.Entry
	// Committed counts the committed commands.
	Committed int
	// Converged reports that every slot reached agreement with every
	// honest process decided.
	Converged bool
}

// Replay replays the committed log through the kv state machine. It
// returns the state's canonical digest, the cheap cross-run convergence
// check, and the commands the state machine refused (deterministically,
// identically on every replica). A run does not replay its own log, so a
// caller that applies the entries itself (the service's Core) never pays
// for a second store.
func (r *LogReport) Replay() (stateHash string, rejected []error) {
	store, rejected := kv.Replay(r.Entries)
	return store.Hash(), rejected
}

// RunLog drives a pipelined replicated log: slots BB sessions with
// rotating proposers drawing commands from queues[proposer], committed
// in slot order (Replay runs them through the kv state machine).
func RunLog(cfg Config, queues [][]types.Value, slots int) (*LogReport, error) {
	if slots < 1 {
		return nil, fmt.Errorf("%w: need at least one slot, got %d", ErrConfig, slots)
	}
	if cfg.N < 1 || len(queues) > cfg.N {
		return nil, fmt.Errorf("%w: %d queues for n=%d", ErrConfig, len(queues), cfg.N)
	}
	out := &LogReport{Entries: make([]kv.Entry, slots)}
	err := out.drive(cfg, logRequests(cfg.N, queues, slots), func(k int, s *SessionResult) error {
		var cmd types.Value
		if s.Agreement {
			cmd = s.Decision.Clone()
		}
		out.Entries[k] = kv.Entry{Slot: k, Proposer: types.ProcessID(k % cfg.N), Command: cmd}
		if !cmd.IsBottom() {
			out.Committed++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// logRequests assigns slot s to proposer p_{s mod n}, which broadcasts its
// next queued command, or ⊥ once its queue is drained.
func logRequests(n int, queues [][]types.Value, slots int) []Request {
	reqs := make([]Request, slots)
	pos := make([]int, n)
	for s := range reqs {
		p := s % n
		var cmd types.Value
		if p < len(queues) && pos[p] < len(queues[p]) {
			cmd = queues[p][pos[p]]
			pos[p]++
		}
		reqs[s] = Request{Kind: protocols.BB, Sender: types.ProcessID(p), Value: cmd}
	}
	return reqs
}

// drive is the driver both logs share: it runs reqs on the engine and
// hands every session to commit in slot order to append its entries. A
// run that used up its tick budget before the log converged is an error;
// one whose adversary merely kept talking past a converged log is not.
func (out *LogReport) drive(cfg Config, reqs []Request, commit func(k int, s *SessionResult) error) error {
	rep, err := Run(cfg, reqs)
	if err != nil {
		return err
	}
	out.Engine, out.Converged = rep, true
	for k := range rep.Sessions {
		s := &rep.Sessions[k]
		if !s.Agreement || !s.AllDecided {
			out.Converged = false
		}
		if err := commit(k, s); err != nil {
			return err
		}
	}
	if rep.TimedOut && !out.Converged {
		return fmt.Errorf("engine: log of %d slots did not converge within its %d-tick budget", len(reqs), rep.Ticks)
	}
	return nil
}
