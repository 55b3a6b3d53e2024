package transport

import (
	"math/rand"
	"time"

	"adaptiveba/internal/metrics"
	"adaptiveba/internal/types"
)

// ChaosConfig is the transport's fault-injection schedule. It wraps the
// batched outbox path: every outgoing network frame is given a seeded
// verdict — deliver, drop, or delay — before it reaches the peer's
// outbox, and tick-indexed windows cut whole links (partitions, flaps).
// This deliberately violates the synchrony assumption the tick loop
// encodes (a message sent during tick k arrives before tick k+1), which
// is exactly the point: the protocols' δ-bound slack, help rounds, and
// 2δ fallback windows are supposed to absorb bounded violations, and the
// chaos tests pin where they do.
//
// Self-deliveries are never touched (they are local, not network).
// Delayed frames are deferred into the peer outboxes.
//
// Determinism: all verdicts are drawn from one rand.Rand seeded with
// Seed on the tick goroutine, so a node's verdict *sequence* is a pure
// function of its seed. Which frame receives which verdict still depends
// on real scheduling (this is wall-clock TCP, not the simulator), so
// chaos runs are reproducible in distribution, not byte-for-byte.
type ChaosConfig struct {
	// Seed drives every verdict. 0 is a valid seed.
	Seed int64
	// DropRate is the per-frame loss probability (0..1).
	DropRate float64
	// DelayRate is the per-frame jitter probability (0..1); a delayed
	// frame is enqueued after a uniform (0, MaxDelay] pause, overtaking
	// frames sent later — jitter doubles as reordering.
	DelayRate float64
	// MaxDelay bounds the injected latency. Keep it under the node's
	// TickInterval to stay inside the δ-bound; push it past 2× to violate
	// even the fallback's doubled rounds. Default TickInterval/4.
	MaxDelay time.Duration
	// PartitionEvery starts a partition window every that many ticks
	// (0 = no partitions): for PartitionTicks ticks the mesh is split by
	// process-id parity and frames crossing the cut are dropped.
	PartitionEvery types.Tick
	// PartitionTicks is the partition window length (default 1).
	PartitionTicks types.Tick
	// FlapEvery flaps one peer every that many ticks (0 = no flaps): for
	// FlapTicks ticks every frame to the seeded-chosen victim is dropped,
	// simulating a link that blinks out and recovers.
	FlapEvery types.Tick
	// FlapTicks is the flap window length (default 1).
	FlapTicks types.Tick
}

// Enabled reports whether any chaos knob is active.
func (c ChaosConfig) Enabled() bool {
	return c.DropRate > 0 || c.DelayRate > 0 ||
		c.PartitionEvery > 0 || c.FlapEvery > 0
}

// chaos executes the schedule for one node. All methods run on the tick
// goroutine except the delayed-enqueue timers it arms.
type chaos struct {
	cfg  ChaosConfig
	self types.ProcessID
	n    int
	rec  *metrics.Recorder
	rng  *rand.Rand
	now  types.Tick
}

// newChaos resolves defaults against the node's tick interval.
func newChaos(cfg ChaosConfig, self types.ProcessID, n int, tick time.Duration, rec *metrics.Recorder) *chaos {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = tick / 4
	}
	if cfg.PartitionEvery > 0 && cfg.PartitionTicks <= 0 {
		cfg.PartitionTicks = 1
	}
	if cfg.FlapEvery > 0 && cfg.FlapTicks <= 0 {
		cfg.FlapTicks = 1
	}
	return &chaos{
		cfg:  cfg,
		self: self,
		n:    n,
		rec:  rec,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
}

// tick advances the chaos clock (called once per tick-loop iteration).
func (c *chaos) tick(now types.Tick) { c.now = now }

// chaosSplitmix is the SplitMix64 finalizer, used to derive per-window
// flap victims from the seed without touching the verdict stream.
func chaosSplitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// verdict decides one frame's fate: deliver (drop=false, delay=0),
// drop, or deliver after delay.
func (c *chaos) verdict(to types.ProcessID) (drop bool, delay time.Duration) {
	// Partition window: drop frames crossing the parity cut.
	if e := c.cfg.PartitionEvery; e > 0 && c.now%e < c.cfg.PartitionTicks {
		if int(c.self)%2 != int(to)%2 {
			return true, 0
		}
	}
	// Peer flap: drop every frame to this window's victim.
	if e := c.cfg.FlapEvery; e > 0 && c.now%e < c.cfg.FlapTicks {
		window := uint64(c.now / e)
		victim := types.ProcessID(chaosSplitmix(uint64(c.cfg.Seed)+window) % uint64(c.n))
		if to == victim && victim != c.self {
			return true, 0
		}
	}
	if c.cfg.DropRate > 0 && c.rng.Float64() < c.cfg.DropRate {
		return true, 0
	}
	if c.cfg.DelayRate > 0 && c.rng.Float64() < c.cfg.DelayRate {
		return false, time.Duration(1 + c.rng.Int63n(int64(c.cfg.MaxDelay)))
	}
	return false, 0
}

// apply runs one frame through the schedule. It returns true when the
// frame was consumed (dropped or deferred); false means the caller
// should enqueue it normally. Deferred frames copy the body (the
// caller's buffer is scratch) and re-enqueue from a timer; a frame whose
// delay outlives the outbox is silently retained by the dead queue,
// exactly like a frame lost in a failing kernel buffer.
func (c *chaos) apply(ob *peerOutbox, to types.ProcessID, body []byte) bool {
	if to == c.self {
		return false // local delivery is not a network link
	}
	drop, delay := c.verdict(to)
	if drop {
		if c.rec != nil {
			c.rec.RecordChaosDrop()
		}
		return true
	}
	if delay > 0 {
		cp := append([]byte(nil), body...)
		time.AfterFunc(delay, func() { ob.enqueue(frameMsg, cp) })
		if c.rec != nil {
			c.rec.RecordChaosDelay()
		}
		return true
	}
	return false
}
