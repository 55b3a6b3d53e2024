// Package metrics implements the paper's cost model (Section 2): the
// communication complexity of a run is the number of words sent by correct
// processes, where a word carries a constant number of signatures and
// values and every message costs at least one word.
//
// A Recorder is attached to a run by the simulator (or the TCP transport)
// and receives one event per message send. It keeps totals, a per-protocol-
// layer breakdown (used to regenerate Figure 1), and per-process counters.
package metrics

import (
	"fmt"
	"sort"
	"strings"
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

func (s *Stats) add(o Stats) {
	s.Messages += o.Messages
	s.Words += o.Words
	s.Bytes += o.Bytes
	s.Signatures += o.Signatures
}

// SendEvent describes a single message send.
type SendEvent struct {
	From   types.ProcessID
	To     types.ProcessID
	Words  int    // word cost of the message (>= 1 is enforced)
	Bytes  int    // encoded size, if known
	Sigs   int    // fresh signatures the sender created for this message
	Layer  string // protocol layer path, e.g. "bb/wba/fallback"
	Honest bool   // whether the sender is correct; only honest sends count
}

// Recorder accumulates events. It is safe for concurrent use: the
// scalar operation counters are atomics (they are the hottest path —
// every certificate combine/verify in a run lands here), while the
// map-touching send path shares one mutex. The simulator's parallel tick
// engine keeps that mutex contention-free by construction: it records all
// of a tick's sends post-join on the engine goroutine, so concurrent
// RecordSend only occurs when several runs share one recorder.
type Recorder struct {
	mu sync.Mutex

	honest    Stats
	byzantine Stats
	byLayer   map[string]*Stats
	byProc    map[types.ProcessID]*Stats
	// procs, when non-nil, replaces byProc for IDs in [0, len(procs)):
	// a dense flat array the scale engine preallocates so the per-process
	// breakdown costs an index instead of a map insert at n=4096.
	// Out-of-range IDs still fall back to the map.
	procs []Stats

	// Last-used memo for the send path: consecutive sends overwhelmingly
	// share a layer (broadcasts) and often a sender, so remembering the
	// last *Stats of each skips two map lookups per message. Guarded by mu.
	lastLayer      string
	lastLayerStats *Stats
	lastProc       types.ProcessID
	lastProcStats  *Stats

	ticks atomic.Int64

	// Verification fast-path counters (internal/crypto/verifycache),
	// stored by the engine at snapshot time. CPU-cost instrumentation
	// only: the cache never changes messages or words.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheWaits  atomic.Int64

	// Transport data-plane counters (internal/transport). Flushes are
	// coalesced writer wakeups; drops are frames shed by the slow-peer
	// backpressure policy. They are atomics because outbox writer
	// goroutines record them concurrently with the tick loop's sends.
	netFlushes       atomic.Int64
	netFlushedFrames atomic.Int64
	netFlushedBytes  atomic.Int64
	netDrops         atomic.Int64

	// Chaos-injection counters (internal/transport chaos layer): frames
	// deliberately lost or deferred by the configured fault schedule —
	// distinct from netDrops, which are genuine backpressure sheds.
	// Atomics because delayed-frame timers fire off the tick goroutine.
	chaosDrops  atomic.Int64
	chaosDelays atomic.Int64

	// Engine admission counters (internal/engine). Rejects are session
	// requests shed by the drop-not-block admission policy (window and
	// queue both full); queued are requests that waited behind the
	// in-flight window before starting; late are messages that arrived
	// for an already-retired session and were discarded by the demux.
	engineRejects atomic.Int64
	engineQueued  atomic.Int64
	engineLate    atomic.Int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		byLayer: make(map[string]*Stats),
		byProc:  make(map[types.ProcessID]*Stats),
	}
}

// DenseProcs preallocates per-process counters for IDs in [0, n) as one
// flat array, so the send path's per-process accounting is an index
// instead of a map lookup. Call it once before recording; counters that
// already live in the map keep accumulating there and both views are
// merged at Snapshot.
func (r *Recorder) DenseProcs(n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.procs) < n {
		procs := make([]Stats, n)
		copy(procs, r.procs)
		r.procs = procs
	}
}

// RecordSend ingests one message-send event.
func (r *Recorder) RecordSend(ev SendEvent) { r.RecordSendN(ev, 1) }

// RecordSendN ingests count identical-cost message sends in one call.
// All count messages share ev's sender, layer, and per-message cost
// (words, bytes, signatures); only the recipients differ, which the
// recorder does not track. The simulator uses this to charge an n-way
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
		r.byzantine.add(s)
		return
	}
	r.honest.add(s)
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
	ls.add(s)
	if i := int(ev.From); i >= 0 && i < len(r.procs) {
		r.procs[i].add(s)
		return
	}
	ps := r.lastProcStats
	if ps == nil || r.lastProc != ev.From {
		var ok bool
		if ps, ok = r.byProc[ev.From]; !ok {
			ps = &Stats{}
			r.byProc[ev.From] = ps
		}
		r.lastProc, r.lastProcStats = ev.From, ps
	}
	ps.add(s)
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

// RecordNetFlush notes one coalesced transport flush carrying the given
// number of frames and wire bytes (headers included).
func (r *Recorder) RecordNetFlush(frames, bytes int) {
	r.netFlushes.Add(1)
	r.netFlushedFrames.Add(int64(frames))
	r.netFlushedBytes.Add(int64(bytes))
}

// RecordNetDrop notes one frame dropped by the transport's backpressure
// policy (the peer's outbox was full, or its connection already failed).
func (r *Recorder) RecordNetDrop() { r.netDrops.Add(1) }

// RecordChaosDrop notes one frame deliberately lost by the transport's
// chaos layer (drop verdict, partition window, or peer flap).
func (r *Recorder) RecordChaosDrop() { r.chaosDrops.Add(1) }

// RecordChaosDelay notes one frame deferred by chaos-injected latency
// jitter (delayed frames may overtake their successors: reordering).
func (r *Recorder) RecordChaosDelay() { r.chaosDelays.Add(1) }

// RecordEngineReject notes one session request shed by the engine's
// admission policy (in-flight window and queue both full).
func (r *Recorder) RecordEngineReject() { r.engineRejects.Add(1) }

// RecordEngineQueued notes one session request that had to wait behind
// the engine's in-flight window before starting.
func (r *Recorder) RecordEngineQueued() { r.engineQueued.Add(1) }

// RecordEngineLate notes messages discarded by the engine's session
// demux because their session had already retired.
func (r *Recorder) RecordEngineLate(n int64) { r.engineLate.Add(n) }

// Report is an immutable snapshot of a recorder.
type Report struct {
	Honest    Stats            // sends by correct processes (the paper's measure)
	Byzantine Stats            // sends by corrupted processes (informational)
	ByLayer   map[string]Stats // honest words per protocol layer
	ByProcess map[types.ProcessID]Stats
	Ticks     types.Tick
	// Verification fast-path counters (0 when the cache is disabled).
	CacheHits   int64
	CacheMisses int64
	CacheWaits  int64
	// Transport data-plane counters (0 on the simulator).
	NetFlushes       int64
	NetFlushedFrames int64
	NetFlushedBytes  int64
	NetDrops         int64
	// Chaos-injection counters (0 unless the transport chaos layer is on).
	ChaosDrops  int64
	ChaosDelays int64
	// Engine admission counters (0 outside multi-session engine runs).
	EngineRejects int64
	EngineQueued  int64
	EngineLate    int64
}

// Snapshot copies the current counters.
func (r *Recorder) Snapshot() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{
		Honest:           r.honest,
		Byzantine:        r.byzantine,
		ByLayer:          make(map[string]Stats, len(r.byLayer)),
		ByProcess:        make(map[types.ProcessID]Stats, len(r.byProc)),
		Ticks:            types.Tick(r.ticks.Load()),
		CacheHits:        r.cacheHits.Load(),
		CacheMisses:      r.cacheMisses.Load(),
		CacheWaits:       r.cacheWaits.Load(),
		NetFlushes:       r.netFlushes.Load(),
		NetFlushedFrames: r.netFlushedFrames.Load(),
		NetFlushedBytes:  r.netFlushedBytes.Load(),
		NetDrops:         r.netDrops.Load(),
		ChaosDrops:       r.chaosDrops.Load(),
		ChaosDelays:      r.chaosDelays.Load(),
		EngineRejects:    r.engineRejects.Load(),
		EngineQueued:     r.engineQueued.Load(),
		EngineLate:       r.engineLate.Load(),
	}
	for k, v := range r.byLayer {
		rep.ByLayer[k] = *v
	}
	for k, v := range r.byProc {
		rep.ByProcess[k] = *v
	}
	for i := range r.procs {
		if r.procs[i] != (Stats{}) {
			s := rep.ByProcess[types.ProcessID(i)]
			s.add(r.procs[i])
			rep.ByProcess[types.ProcessID(i)] = s
		}
	}
	return rep
}

// Words is shorthand for the paper's headline number: words sent by correct
// processes.
func (rep Report) Words() int64 { return rep.Honest.Words }

// LayerTable renders the per-layer breakdown as an aligned text table,
// sorted by layer path. It is the textual regeneration of Figure 1.
func (rep Report) LayerTable() string {
	layers := make([]string, 0, len(rep.ByLayer))
	for l := range rep.ByLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %10s %10s\n", "layer", "msgs", "words", "sigs")
	for _, l := range layers {
		s := rep.ByLayer[l]
		fmt.Fprintf(&b, "%-28s %10d %10d %10d\n", l, s.Messages, s.Words, s.Signatures)
	}
	fmt.Fprintf(&b, "%-28s %10d %10d %10d\n", "TOTAL (correct senders)",
		rep.Honest.Messages, rep.Honest.Words, rep.Honest.Signatures)
	return b.String()
}

// String summarises the report in one line.
func (rep Report) String() string {
	return fmt.Sprintf("words=%d msgs=%d sigs=%d ticks=%d",
		rep.Honest.Words, rep.Honest.Messages, rep.Honest.Signatures, rep.Ticks)
}
