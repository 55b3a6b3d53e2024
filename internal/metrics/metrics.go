// Package metrics implements the paper's cost model (Section 2): the
// communication complexity of a run is the number of words sent by correct
// processes, where a word carries a constant number of signatures and
// values and every message costs at least one word.
//
// A Recorder is owned by a run's simulator (or a TCP transport node) and
// receives its message sends. It keeps totals and a per-protocol-layer
// breakdown (used to regenerate Figure 1).
package metrics

import (
	"sync"
	"sync/atomic"

	"adaptiveba/internal/types"
)

// Stats aggregates the cost counters of some slice of a run.
type Stats struct {
	Messages   int64 // number of messages sent
	Words      int64 // total words per the paper's model
	Bytes      int64 // wire bytes (meaningful on the TCP transport; estimated in-sim)
	Signatures int64 // individual signatures created for these messages
}

// Add adds o's counters to s.
func (s *Stats) Add(o Stats) {
	s.Messages += o.Messages
	s.Words += o.Words
	s.Bytes += o.Bytes
	s.Signatures += o.Signatures
}

// SendEvent describes a single message send. Sender and recipient are not
// part of it: the cost model charges a send by its layer and honesty only.
type SendEvent struct {
	Words  int    // word cost of the message (>= 1 is enforced)
	Bytes  int    // encoded size, if known
	Sigs   int    // fresh signatures the sender created for this message
	Layer  string // protocol layer path, e.g. "bb/wba/fallback"
	Honest bool   // whether the sender is correct; only honest sends count
}

// Recorder accumulates events. It is safe for concurrent use: the
// scalar counters (ticks, verification-cache statistics, transport
// drops) are atomics that are set without the lock, while the
// map-touching send path shares one mutex. The simulator's parallel tick
// engine keeps that mutex contention-free by construction: it records all
// of a tick's sends post-join on the engine goroutine.
type Recorder struct {
	mu sync.Mutex

	honest    Stats
	byzantine Stats
	byLayer   map[string]*Stats

	// Last-used memo for the send path: consecutive sends overwhelmingly
	// share a layer (broadcasts), so remembering the last *Stats skips a
	// map lookup per message. Guarded by mu.
	lastLayer      string
	lastLayerStats *Stats

	ticks atomic.Int64

	// Verification fast-path counters (internal/crypto/verifycache),
	// stored by the engine at snapshot time. CPU-cost instrumentation
	// only: the cache never changes messages or words.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheWaits  atomic.Int64

	// Transport data-plane counter (internal/transport): frames shed by
	// the slow-peer backpressure policy.
	netDrops atomic.Int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byLayer: make(map[string]*Stats)}
}

// RecordSend ingests one message-send event.
func (r *Recorder) RecordSend(ev SendEvent) { r.RecordSendN(ev, 1) }

// RecordSendN ingests count identical-cost message sends in one call.
// All count messages share ev's layer and per-message cost (words,
// bytes, signatures). The simulator uses this to charge an n-way
// broadcast with one mutex acquisition instead of n.
func (r *Recorder) RecordSendN(ev SendEvent, count int) {
	if count <= 0 {
		return
	}
	if ev.Words < 1 {
		ev.Words = 1 // every message carries at least one word
	}
	c := int64(count)
	s := Stats{
		Messages:   c,
		Words:      int64(ev.Words) * c,
		Bytes:      int64(ev.Bytes) * c,
		Signatures: int64(ev.Sigs) * c,
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if !ev.Honest {
		r.byzantine.Add(s)
		return
	}
	r.honest.Add(s)
	layer := ev.Layer
	if layer == "" {
		layer = "(root)"
	}
	ls := r.lastLayerStats
	if ls == nil || r.lastLayer != layer {
		var ok bool
		if ls, ok = r.byLayer[layer]; !ok {
			ls = &Stats{}
			r.byLayer[layer] = ls
		}
		r.lastLayer, r.lastLayerStats = layer, ls
	}
	ls.Add(s)
}

// SetTicks records the run's duration in ticks (δ units).
func (r *Recorder) SetTicks(t types.Tick) { r.ticks.Store(int64(t)) }

// SetCacheStats records the run's verification-cache counters (hits,
// misses, single-flight waits).
func (r *Recorder) SetCacheStats(hits, misses, waits int64) {
	r.cacheHits.Store(hits)
	r.cacheMisses.Store(misses)
	r.cacheWaits.Store(waits)
}

// RecordNetDrop notes one frame dropped by the transport's backpressure
// policy (the peer's outbox was full, or its connection already failed).
func (r *Recorder) RecordNetDrop() { r.netDrops.Add(1) }

// Report is an immutable snapshot of a recorder.
type Report struct {
	Honest    Stats            // sends by correct processes (the paper's measure)
	Byzantine Stats            // sends by corrupted processes (informational)
	ByLayer   map[string]Stats // honest words per protocol layer
	Ticks     types.Tick
	// Verification fast-path counters (0 when the cache is disabled).
	CacheHits   int64
	CacheMisses int64
	CacheWaits  int64
	// Transport data-plane counters (0 on the simulator).
	NetDrops int64
	// EngineLate counts messages the multi-session engine's demux
	// discarded because their session had already retired (0 outside
	// engine runs; the engine writes it onto its snapshot).
	EngineLate int64
}

// Snapshot copies the current counters.
func (r *Recorder) Snapshot() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{
		Honest:      r.honest,
		Byzantine:   r.byzantine,
		ByLayer:     make(map[string]Stats, len(r.byLayer)),
		Ticks:       types.Tick(r.ticks.Load()),
		CacheHits:   r.cacheHits.Load(),
		CacheMisses: r.cacheMisses.Load(),
		CacheWaits:  r.cacheWaits.Load(),
		NetDrops:    r.netDrops.Load(),
	}
	for k, v := range r.byLayer {
		rep.ByLayer[k] = *v
	}
	return rep
}

// Words is shorthand for the paper's headline number: words sent by correct
// processes.
func (rep Report) Words() int64 { return rep.Honest.Words }
