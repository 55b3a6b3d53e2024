package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// traceDiv is how much shorter than the untraced run the traced one is.
// Every traced run walks all four ladders, so that it can report every
// per-layer metric; at 1/16 length that takes about as long as one
// untraced workload.
const traceDiv = 16

// topRung names the public-surface rung of every ladder.
const topRung = "public"

// span is one timed call. Spans of one unit (request, burst or call)
// share its ID across the rungs of a ladder.
type span struct {
	Name    string `json:"name"`
	Rung    string `json:"rung"`
	Parent  string `json:"parent,omitempty"` // the rung whose span caused this one
	ID      int    `json:"id"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer keeps the spans of one ladder in memory until the run ends.
type tracer struct {
	epoch     time.Time
	rung      string
	above     string
	alternate bool // record even windows only (the public rung)
	spans     []span
}

// add records the span of the current rung's own call.
func (t *tracer) add(name string, id int, start time.Time, d time.Duration) {
	t.spans = append(t.spans, span{name, t.rung, t.above, id, int64(start.Sub(t.epoch)), int64(d)})
}

// sub records a call made inside the current rung's span.
func (t *tracer) sub(name string, id int, start time.Time, d time.Duration) {
	t.spans = append(t.spans, span{name, t.rung + "/" + name, t.rung, id, int64(start.Sub(t.epoch)), int64(d)})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder is the outcome of one workload's traced run.
type ladder struct {
	perWindow int
	spans     []span
	top       *phase
	phases    map[string]*phase             // by rung
	counts    map[string]map[string]float64 // by rung: counter deltas over the measured phase
}

// named returns the durations in ms of the rung's spans of one name,
// grouped by window.
func (l *ladder) named(rung, name string) [][]float64 {
	per := make([][]float64, numWindows)
	for i := range l.spans {
		if sp := &l.spans[i]; sp.Rung == rung && (name == "" || sp.Name == name) {
			per[sp.ID/l.perWindow] = append(per[sp.ID/l.perWindow], float64(sp.DurNS)/1e6)
		}
	}
	return per
}

// windowMedians applies the window-quartile rule to grouped samples: the
// favourable quartile over the windows that have samples of the window's
// median.
func windowMedians(per [][]float64) float64 {
	var meds []float64
	for _, w := range per {
		if len(w) > 0 {
			meds = append(meds, median(w))
		}
	}
	return favourable(meds, false)
}

// ms is the window-quartile median duration of a rung's spans, scaled to
// reference host speed by the calibration of the rung's own phase.
func (l *ladder) ms(rung, name string) float64 {
	own, _, _ := strings.Cut(rung, "/")
	return windowMedians(l.named(rung, name)) * hostSpeed(l.phases[own].cal)
}

// selfMS is a rung's self time: its span minus the spans of the rungs
// below it. The rungs run one after another, not nested, so this is a
// difference of window-quartile medians, and it can come out slightly
// negative when a lower rung runs slower in isolation than inside the
// rung above it (a tight loop of allocating calls pays collector assists
// that a caller waiting on the network does not).
func (l *ladder) selfMS(rung string, below ...string) float64 {
	self := l.ms(rung, "")
	for _, b := range below {
		self -= l.ms(b, "")
	}
	return self
}

// overheadFrac compares each traced (even) window of the public rung with
// the untraced window after it and returns the median of the twelve
// ratios, less one. Pairing neighbours cancels what drifts during the run.
func (l *ladder) overheadFrac() float64 {
	var ratios []float64
	for w := 0; w+1 < numWindows; w += 2 {
		traced := median(l.top.lat[w*l.perWindow : (w+1)*l.perWindow])
		plain := median(l.top.lat[(w+1)*l.perWindow : (w+2)*l.perWindow])
		ratios = append(ratios, traced/plain)
	}
	return median(ratios) - 1
}

// runLadder runs the workload's public rung and every rung below it on
// the same seeded stream, with the correctness gate on at the top.
func runLadder(ctx context.Context, e *env, w *workload, seed int64, perWindow int) (*ladder, error) {
	l := &ladder{perWindow: perWindow, phases: map[string]*phase{}, counts: map[string]map[string]float64{}}
	tr := &tracer{epoch: time.Now()}
	rungs := append([]rung{{topRung, func(ctx context.Context, e *env, s stream) (stepper, error) {
		return w.open(ctx, e, s)
	}}}, w.rungs...)
	for r, rg := range rungs {
		s := w.newStream(seed)
		st, err := rg.open(ctx, e, s)
		if err != nil {
			return nil, fmt.Errorf("%s: rung %s: %w", w.name, rg.name, err)
		}
		for i := 0; i < w.warmUnits; i++ {
			if _, err := st.step(i-w.warmUnits, s.next(i), nil); err != nil {
				st.close()
				return nil, fmt.Errorf("%s: rung %s: warm-up unit %d: %w", w.name, rg.name, i, err)
			}
		}
		tr.rung, tr.above, tr.alternate = rg.name, "", r == 0
		if r > 0 {
			tr.above = rungs[r-1].name
		}
		before := snapshotCounters(st)
		p := measure(st, s, w, perWindow, tr)
		l.phases[rg.name] = p
		l.counts[rg.name] = map[string]float64{}
		for k, v := range snapshotCounters(st) {
			l.counts[rg.name][k] = v - before[k]
		}
		if r == 0 {
			l.top = p
			if p.firstErr == nil {
				_, p.firstErr = st.(target).verify(s)
			}
		}
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("%s: rung %s: close: %w", w.name, rg.name, err)
		}
		if p.firstErr != nil && r > 0 {
			return nil, fmt.Errorf("%s: rung %s: %w", w.name, rg.name, p.firstErr)
		}
	}
	l.spans = tr.spans
	return l, tr.write(filepath.Join(e.out, "trace-"+w.name+".jsonl"))
}

func snapshotCounters(st stepper) map[string]float64 {
	out := map[string]float64{}
	if c, ok := st.(counter); ok {
		for k, v := range c.counters() {
			out[k] = v
		}
	}
	return out
}

// tracedReport is the outcome of a -trace 1 run.
type tracedReport struct {
	Host       host              `json:"host"`
	Seconds    int               `json:"seconds"`
	Seed       int64             `json:"seed"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
	P99Samples map[string]int    `json:"lat_p99_samples"`
	SpanFiles  string            `json:"span_files"`
	Metrics    map[string]metric `json:"metrics"`
}

// runTraced walks every workload's ladder at 1/traceDiv length, then the
// fixed layer suite, and derives every per-layer metric.
func runTraced(ctx context.Context, e *env, seed int64, seconds int) (*tracedReport, error) {
	rep := &tracedReport{
		Host: hostBlock(e.storage), Seconds: seconds, Seed: seed, Correct: true,
		P99Samples: map[string]int{}, SpanFiles: filepath.Join(e.out, "trace-<workload>.jsonl"),
		Metrics: map[string]metric{},
	}
	ladders := map[string]*ladder{}
	for _, w := range workloads {
		l, err := runLadder(ctx, e, w, seed, w.unitsPerWindow(seconds, traceDiv))
		if err != nil {
			return nil, err
		}
		ladders[w.name] = l
		rep.Attempted += l.top.ops()
		rep.Failed += l.top.failed * w.unitOps
		if l.top.firstErr != nil {
			rep.Correct = false
			rep.Errors = append(rep.Errors, w.name+": "+l.top.firstErr.Error())
		}
		rep.P99Samples[w.name] = len(l.top.lat)
		rep.Metrics["service.lat_p99_ms."+w.name] = metric{percentile(sortedCopy(l.top.lat), 99) * hostSpeed(l.top.cal), "ms"}
		rep.Metrics["service.trace_overhead_frac."+w.name] = metric{l.overheadFrac(), "ratio"}
	}
	ladderMetrics(rep.Metrics, ladders)
	if err := layerSuite(ctx, e, rep.Metrics); err != nil {
		return nil, err
	}
	for _, name := range perLayerNames {
		if m, ok := rep.Metrics[name]; !ok || m.Value != m.Value {
			return nil, fmt.Errorf("per-layer metric %s has no value", name)
		}
	}
	if len(rep.Metrics) != len(perLayerNames) {
		return nil, fmt.Errorf("%d per-layer metrics reported, %d declared", len(rep.Metrics), len(perLayerNames))
	}
	return rep, nil
}

// perLayerNames declares the per-layer metrics, in BENCHMARK.json's
// order; a traced run reports exactly these.
var perLayerNames = []string{
	"service.trace_overhead_frac.svc-put-serial", "service.trace_overhead_frac.svc-put-burst32",
	"service.trace_overhead_frac.svc-read-mostly", "service.trace_overhead_frac.lib-acs-crash1",
	"service.lat_p99_ms.svc-put-serial", "service.lat_p99_ms.svc-put-burst32",
	"service.lat_p99_ms.svc-read-mostly", "service.lat_p99_ms.lib-acs-crash1",
	"service.net_self_ms.serial", "service.net_self_ms.burst32",
	"service.rtt_get_us", "service.flushes_per_burst", "service.codec_us", "transport.frame_us",
	"service.core.commit_ms.b1", "service.core.commit_ms.b32", "service.core.commit_ms.b128",
	"service.core.self_ms.b1", "service.core.self_ms.b32",
	"service.core.get_inline_us", "service.core.get_anchored_us",
	"service.core.snapshot_ms", "service.core.verify_ms_per_kentry",
	"service.audit.append_us", "service.audit.bytes_per_commit",
	"service.audit.append_disk_us", "blob.put_4k_disk_us",
	"blob.put_4k_us", "blob.put_dup_4k_us", "blob.get_8k_us",
	"kv.apply_us", "kv.hash_1024_us", "kv.snapshot_1024_us",
	"engine.setup_us", "engine.acslog_ms.n4r1", "engine.acslog_ms.n4r1b8",
	"engine.allocs_per_call.n4r1", "engine.alloc_kb_per_call.n4r1",
	"engine.words_per_round.n4", "engine.ticks_per_round.n4", "engine.acslog_ms.n9f1",
	"acs.words_per_round.n9f0", "acs.words_per_round.n9f1", "acs.words_per_round.n9f2", "acs.words_per_round.n9f4",
	"acs.round_ms.n9f0", "acs.round_ms.n9f1", "acs.round_ms.n9f4", "acs.fallback_procs.n9f1", "acs.codec_us",
	"fallback.words_share.n9f1",
	"core.bb.words.n33f0", "core.bb.words.n33f1", "core.bb.words.n33f8", "core.bb.words.n33f16",
	"core.bb.envelope_frac.n33f8", "core.wba.words.n33f0", "core.wba.words.n33f8",
	"core.strongba.words.n33f0", "core.strongba.words.n33f1",
	"crypto.sig.hmac_sign_ns", "crypto.sig.hmac_verify_ns", "crypto.threshold.sign_share_ns",
	"crypto.threshold.combine_us.n9", "crypto.threshold.verify_us.n9", "crypto.verifycache.hit_frac",
}

// ladderMetrics derives the per-layer metrics that come out of the four
// ladders.
func ladderMetrics(m map[string]metric, ladders map[string]*ladder) {
	const (
		core    = "service.Core"
		eng     = "engine.RunACSLog"
		setup   = "engine.setup"
		storage = "storage"
	)
	serial, burst := ladders["svc-put-serial"], ladders["svc-put-burst32"]
	read, lib := ladders["svc-read-mostly"], ladders["lib-acs-crash1"]

	m["service.net_self_ms.serial"] = metric{serial.selfMS(topRung, core), "ms"}
	m["service.core.commit_ms.b1"] = metric{serial.ms(core, "Core.Commit"), "ms"}
	m["service.core.self_ms.b1"] = metric{serial.selfMS(core, eng, storage), "ms"}
	m["engine.acslog_ms.n4r1"] = metric{serial.ms(eng, ""), "ms"}
	m["engine.setup_us"] = metric{serial.ms(setup, "") * 1e3, "us"}
	ep, ec := serial.phases[eng], serial.counts[eng]
	m["engine.allocs_per_call.n4r1"] = metric{float64(ep.mallocs) / float64(len(ep.lat)), "count"}
	m["engine.alloc_kb_per_call.n4r1"] = metric{float64(ep.allocated) / 1024 / float64(len(ep.lat)), "KiB"}
	m["engine.words_per_round.n4"] = metric{ec["words"] / ec["rounds"], "count"}
	m["engine.ticks_per_round.n4"] = metric{ec["ticks"] / ec["rounds"], "count"}

	m["service.net_self_ms.burst32"] = metric{burst.selfMS(topRung, core), "ms"}
	m["service.flushes_per_burst"] = metric{burst.counts[topRung]["rounds"] / float64(len(burst.top.lat)), "count"}
	m["service.core.commit_ms.b32"] = metric{burst.ms(core, "Core.Commit"), "ms"}
	m["service.core.self_ms.b32"] = metric{burst.selfMS(core, eng, storage), "ms"}
	m["engine.acslog_ms.n4r1b8"] = metric{burst.ms(eng, ""), "ms"}
	m["service.audit.append_us"] = metric{burst.ms(storage+"/Audit.Append", "") * 1e3, "us"}
	m["service.audit.bytes_per_commit"] = metric{burst.counts[storage]["audit_bytes"] / burst.counts[storage]["entries"], "B"}
	m["blob.put_4k_us"] = metric{burst.ms(storage+"/blob.Put", "") * 1e3, "us"}
	m["kv.apply_us"] = metric{burst.ms(storage+"/kv.Apply", "") * 1e3, "us"}

	m["service.rtt_get_us"] = metric{read.ms(topRung, "client.get") * 1e3, "us"}
	m["service.core.get_inline_us"] = metric{read.ms(core, "Core.Get.inline") * 1e3, "us"}
	m["service.core.get_anchored_us"] = metric{read.ms(core, "Core.Get.anchored") * 1e3, "us"}
	m["blob.get_8k_us"] = metric{read.ms(storage+"/blob.Get", "") * 1e3, "us"}

	m["engine.acslog_ms.n9f1"] = metric{lib.ms(eng, ""), "ms"}
	lc := lib.counts[eng]
	m["crypto.verifycache.hit_frac"] = metric{ratio(lc["cache_hits"], lc["cache_lookups"]), "ratio"}
}
