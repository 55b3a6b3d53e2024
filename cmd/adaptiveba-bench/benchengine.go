package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"adaptiveba/internal/engine"
	"adaptiveba/internal/types"
)

// benchDeltaMillis is the reference network delay δ used to convert
// simulated ticks into seconds — the transport's default TickInterval.
// In a synchronous deployment the protocols are δ-bound, not CPU-bound,
// so commits/sec over simulated time is the honest throughput number;
// WallSeconds is reported alongside as the simulator's own cost.
const benchDeltaMillis = 25

// engineBenchArm is one (n, inflight) measurement of the pipelined log.
type engineBenchArm struct {
	// Inflight is the admission window W (1 = strictly serial slots).
	Inflight int `json:"inflight"`
	// Ticks is the simulated run length; SessionTicks the per-slot
	// worst-case schedule D; Stride the gap between slot starts.
	Ticks        int64 `json:"ticks"`
	SessionTicks int64 `json:"session_ticks"`
	Stride       int64 `json:"stride"`
	Commits      int   `json:"commits"`
	Words        int64 `json:"words"`
	// CommitsPerKTick is commits per 1000 simulated ticks; CommitsPerSec
	// applies δ = 25ms per tick.
	CommitsPerKTick float64 `json:"commits_per_ktick"`
	CommitsPerSec   float64 `json:"commits_per_sec"`
	WallSeconds     float64 `json:"wall_seconds"`
	// SpeedupVsSerial is this arm's commit throughput over the W=1 arm's
	// (simulated-time basis, so it is deterministic).
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// DecisionsIdentical asserts the determinism contract against the
	// serial arm: per-session decisions, per-session word and message
	// counts (the engine fingerprint) and the replayed kv state hash are
	// byte-identical.
	DecisionsIdentical bool   `json:"decisions_identical"`
	StateHash          string `json:"state_hash"`
}

// engineBenchN groups the arms for one system size.
type engineBenchN struct {
	N    int              `json:"n"`
	Arms []engineBenchArm `json:"arms"`
}

// engineBench is the full report written by -bench-engine-json.
type engineBench struct {
	Workload   string   `json:"workload"`
	DeltaMs    int      `json:"delta_ms"`
	Slots      int      `json:"slots"`
	Windows    []int    `json:"windows"`
	Ns         []int    `json:"ns"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Host       hostMeta `json:"host"`

	Results []engineBenchN `json:"results"`
}

// runBenchEngineJSON A/Bs the multi-session engine's pipelined
// replicated log against serial slot-at-a-time execution: `slots` BB
// slots with rotating proposers at every n, once per admission window,
// asserting that pipelining changes only the schedule — never a
// decision or a word count.
func runBenchEngineJSON(out io.Writer, path string, ns []int, slots int, windows []int) error {
	if slots < 1 {
		return fmt.Errorf("-sessions: need at least one slot, got %d", slots)
	}
	rep := engineBench{
		Workload:   "smr-log-over-bb",
		DeltaMs:    benchDeltaMillis,
		Slots:      slots,
		Windows:    windows,
		Ns:         ns,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       newHostMeta(),
	}
	for _, n := range ns {
		queues := make([][]types.Value, n)
		for s := 0; s < slots; s++ {
			p := s % n
			queues[p] = append(queues[p], types.Value(fmt.Sprintf("SET slot%d p%d", s, p)))
		}
		group := engineBenchN{N: n}
		var serialFP, serialHash string
		var serialKTick float64
		for _, w := range windows {
			start := time.Now()
			lr, err := engine.RunLog(engine.Config{
				N: n, Inflight: w, Seed: 7, Tag: "bench",
			}, queues, slots)
			wall := time.Since(start)
			if err != nil {
				return fmt.Errorf("n=%d inflight=%d: %w", n, w, err)
			}
			er := lr.Engine
			if !lr.Converged {
				return fmt.Errorf("n=%d inflight=%d: log did not converge", n, w)
			}
			arm := engineBenchArm{
				Inflight:     w,
				Ticks:        int64(er.Ticks),
				SessionTicks: int64(er.SessionTicks),
				Stride:       int64(er.Stride),
				Commits:      lr.Committed,
				Words:        er.Metrics.Honest.Words,
				WallSeconds:  wall.Seconds(),
				StateHash:    lr.StateHash,
			}
			if er.Ticks > 0 {
				arm.CommitsPerKTick = float64(lr.Committed) * 1000 / float64(er.Ticks)
				arm.CommitsPerSec = float64(lr.Committed) / (float64(er.Ticks) * benchDeltaMillis / 1000)
			}
			// The first arm is the baseline; the default window list leads
			// with W=1 (strictly serial execution).
			fp := er.Fingerprint()
			if serialFP == "" {
				serialFP, serialHash, serialKTick = fp, lr.StateHash, arm.CommitsPerKTick
			}
			arm.DecisionsIdentical = fp == serialFP && lr.StateHash == serialHash
			if serialKTick > 0 {
				arm.SpeedupVsSerial = arm.CommitsPerKTick / serialKTick
			}
			group.Arms = append(group.Arms, arm)
			fmt.Fprintf(out, "bench-engine: n=%-3d W=%-3d ticks=%-6d commits=%d  %.2f commits/ktick  %.2fx vs serial  identical=%v  (%.2fs wall)\n",
				n, w, arm.Ticks, arm.Commits, arm.CommitsPerKTick, arm.SpeedupVsSerial, arm.DecisionsIdentical, arm.WallSeconds)
			if !arm.DecisionsIdentical {
				return fmt.Errorf("determinism violation: n=%d inflight=%d diverged from serial execution", n, w)
			}
		}
		rep.Results = append(rep.Results, group)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  wrote %s\n", path)
	return nil
}
