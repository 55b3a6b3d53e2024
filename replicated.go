package adaptiveba

import (
	"context"
	"crypto/rand"
	"fmt"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/smr"
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
	// Agreement confirms all correct replicas built the identical log.
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
// WithInflight(w) with w > 1 pipelines the log: slot s+1's broadcast
// starts while slot s may still be running its fallback, multiplying
// commit throughput by up to w without changing any committed entry.
// Unlike RunMany and ReplicateBatchContext, the default WithInflight(0)
// here is strictly sequential (one slot at a time, the same as 1), not
// "as deep as the workload allows". The context cancels the run promptly
// with ErrCanceled.
func ReplicateLogContext(ctx context.Context, n int, queues [][][]byte, slots int, opts ...Option) (*LogResult, error) {
	merged := buildOptions(n, opts)
	spec, err := baseSpec(merged)
	if err != nil {
		return nil, err
	}
	if len(queues) != n {
		return nil, fmt.Errorf("%w: need %d queues, got %d", ErrInputs, n, len(queues))
	}
	if slots < 1 {
		return nil, fmt.Errorf("%w: need at least one slot", ErrInputs)
	}

	var params types.Params
	if spec.T > 0 {
		params, err = types.Custom(n, spec.T)
	} else {
		params, err = types.NewParams(n)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrOptions, err)
	}
	var scheme sig.Scheme
	if merged.realSignatures {
		scheme, err = sig.NewEd25519Ring(n, rand.Reader)
	} else {
		scheme, err = sig.NewHMACRing(n, []byte(fmt.Sprintf("log-%d", merged.seed)))
	}
	if err != nil {
		return nil, err
	}
	crypto := proto.NewCrypto(params, scheme, threshold.ModeCompact, []byte("log-dealer"))

	stride, budget, err := logSchedule(params, crypto, slots, merged.inflight)
	if err != nil {
		return nil, err
	}
	rec := metrics.NewRecorder()
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			queue := make([]types.Value, 0, len(queues[id]))
			for _, c := range queues[id] {
				queue = append(queue, types.Value(c).Clone())
			}
			m, err := smr.NewMachine(smr.Config{
				Params: params, Crypto: crypto, ID: id,
				Tag: "log", Slots: slots, Queue: queue, Stride: stride,
			})
			if err != nil {
				panic("adaptiveba: smr config validated above: " + err.Error())
			}
			return m
		},
		Adversary: logAdversary(spec),
		MaxTicks:  budget,
		Recorder:  rec,
		Halt:      haltFrom(ctx),
	})
	if err != nil {
		return nil, mapCanceled(ctx, err)
	}
	if res.TimedOut {
		return nil, fmt.Errorf("adaptiveba: replicated log of %d slots did not finish within its %d-tick budget", slots, budget)
	}

	logEnc, agreement := res.Agreement()
	out := &LogResult{
		Agreement: agreement,
		Words:     res.Report.Honest.Words,
		Messages:  res.Report.Honest.Messages,
	}
	if agreement && !logEnc.IsBottom() {
		entries, err := smr.DecodeLog(logEnc)
		if err != nil {
			return nil, fmt.Errorf("adaptiveba: decode committed log: %w", err)
		}
		committed := 0
		for _, e := range entries {
			le := LogEntry{Slot: e.Slot, Proposer: int(e.Proposer)}
			if !e.Command.IsBottom() {
				le.Command = append([]byte(nil), e.Command...)
				committed++
			}
			out.Entries = append(out.Entries, le)
		}
		if committed > 0 {
			out.WordsPerCommit = float64(out.Words) / float64(committed)
		}
	}
	return out, nil
}

// logSchedule derives the slot stride and the simulator's tick budget
// from a probe replica, before the run's sim.Config is built.
// inflight = w > 0 pipelines the slots: consecutive broadcasts start
// every ceil(SlotTicks/w) ticks instead of back to back, keeping up to w
// instances live; 0 keeps the strictly sequential schedule (stride 0 is
// the machine's default, one slot length). The budget is twice the
// sequential log's worst case, which bounds every pipelined one too.
func logSchedule(params types.Params, crypto *proto.Crypto, slots, inflight int) (stride, budget types.Tick, err error) {
	probe, err := smr.NewMachine(smr.Config{
		Params: params, Crypto: crypto, ID: 0, Tag: "log", Slots: slots,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("adaptiveba: %w", err)
	}
	if inflight > 0 {
		w := types.Tick(inflight)
		stride = (probe.SlotTicks() + w - 1) / w
	}
	return stride, probe.MaxTicks() * 2, nil
}

// logAdversary converts the validated spec's fault settings into a crash
// adversary for the log runner (crash patterns only; the richer attacks
// stay in the harness).
func logAdversary(spec harness.Spec) sim.Adversary {
	if spec.F == 0 {
		return nil
	}
	start := 1
	if spec.Fault == harness.FaultCrashLeader {
		start = 0
	}
	ids := make([]types.ProcessID, 0, spec.F)
	for i := 0; len(ids) < spec.F; i++ {
		ids = append(ids, types.ProcessID((start+i)%spec.N))
	}
	return adversary.NewCrash(ids...)
}
