package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// clientTimeout is the service client's per-attempt timeout; a failed
// unit is charged this much latency.
const clientTimeout = 2 * time.Second

// setupReps is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one the measured phase runs on.
const setupReps = 3

// env is where a run keeps its files. The service's blob directories and
// audit logs go under root: the sandbox disk is the dominant noise source
// (back-to-back serial-put runs on it drifted 522→290 ops/s), so root is
// on tmpfs whenever /dev/shm has room, and the choice is reported in the
// host block. What the run leaves behind (span files) and the real-disk
// diagnostics go under out, inside the checkout.
type env struct {
	root    string
	out     string
	storage string
	n       int
}

const minShmFree = 1 << 30

func newEnv(out string) (*env, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &st); err == nil && st.Bavail*uint64(st.Bsize) >= minShmFree {
		if root, err := os.MkdirTemp("/dev/shm", "adaptiveba-bench-"); err == nil {
			return &env{root: root, out: out, storage: "tmpfs:/dev/shm"}, nil
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: /dev/shm is not a writable tmpfs with 1 GiB free; storage falls back to "+out+" (disk timings are noisier)")
	root, err := os.MkdirTemp(out, "store-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, out: out, storage: "disk:" + out}, nil
}

// dir returns a fresh directory for one service instance.
func (e *env) dir() (string, error) {
	e.n++
	d := filepath.Join(e.root, fmt.Sprintf("s%d", e.n))
	return d, os.MkdirAll(d, 0o755)
}

func (e *env) close() { os.RemoveAll(e.root) }

// stepper runs the units of a stream at one rung of the layer ladder.
type stepper interface {
	// step runs one unit and names the span it belongs to; id is the
	// unit's index in the measured phase (negative during warm-up).
	step(id int, u unit, tr *tracer) (span string, err error)
	close() error
}

// target is the top rung: the system behind its public functions.
type target interface {
	stepper
	// costs returns the cumulative honest words and committed commands.
	costs() (words, commits int64)
	// verify is the end-of-run half of the correctness gate; it returns
	// the final state hash.
	verify(s stream) (stateHash string, err error)
}

// workload is one row of the workload table.
type workload struct {
	name    string
	why     string
	unitOps int // client requests (or committed commands) per unit
	// perWindow25 is the units per window of a 25 s run, the size the
	// issue fixed; -seconds scales it so a run's work, not its duration,
	// is what the flag sets.
	perWindow25 int
	// roundTo keeps the window a multiple of the stream's stride.
	roundTo int
	// latUnits is how many consecutive units make one latency sample: 1,
	// except on svc-read-mostly, where a sample is one stride of 19 Gets
	// and a Put. A Get is four goroutine hand-offs and little else, and
	// what those cost follows the host's idle states, not its speed: the
	// median Get moved 35→80 µs on identical code, within runs and against
	// the drift of everything else.
	latUnits  int
	warmUnits int
	newStream func(seed int64) stream
	open      func(ctx context.Context, e *env, s stream) (target, error)
	// rungs are the ladder below the public surface, outermost first.
	rungs []rung
}

// unitsPerWindow sizes a window for -seconds, shortened div times for a
// traced run.
func (w *workload) unitsPerWindow(seconds, div int) int {
	return max(w.perWindow25*seconds/25/div/w.roundTo, 1) * w.roundTo
}

// phase is the raw record of one measured phase.
type phase struct {
	w         *workload
	perWindow int
	lat       []float64 // ms per unit
	wall, cpu []float64 // seconds per window
	cal       []float64 // seconds per reference kernel, around every window
	mallocs   uint64
	allocated uint64
	liveHeap  uint64
	words     int64
	commits   int64
	failed    int // units
	firstErr  error
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure drives units [first, first+windows*perWindow) of s through st,
// timing the reference kernel before every window and after the last.
// With a tracer, even windows record a span per unit and odd ones do
// not, so one run yields both sides of the tracing-overhead ratio.
func measure(st stepper, s stream, w *workload, perWindow int, tr *tracer) *phase {
	p := &phase{w: w, perWindow: perWindow, lat: make([]float64, 0, numWindows*perWindow)}
	first := w.warmUnits
	var m0, m1 runtime.MemStats
	i := first
	for w := 0; w < numWindows; w++ {
		wtr := tr
		if tr != nil && tr.alternate && w%2 == 1 {
			wtr = nil
		}
		// A traced run has fourteen phases to calibrate, so each makes do
		// with every fourth sample.
		if tr == nil || w%4 == 0 {
			p.cal = append(p.cal, calibrate())
		}
		// The counters are read per window so that the reference
		// kernel's allocations stay out of them.
		runtime.ReadMemStats(&m0)
		cpu0, t0 := cpuSeconds(), time.Now()
		for j := 0; j < perWindow; j++ {
			u := s.next(i)
			start := time.Now()
			span, err := st.step(i-first, u, wtr)
			d := time.Since(start)
			if err != nil {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = fmt.Errorf("unit %d (%s): %w", i, span, err)
				}
				d = clientTimeout
			}
			if wtr != nil {
				wtr.add(span, i-first, start, d)
			}
			p.lat = append(p.lat, float64(d)/1e6)
			i++
		}
		p.wall = append(p.wall, time.Since(t0).Seconds())
		p.cpu = append(p.cpu, cpuSeconds()-cpu0)
		runtime.ReadMemStats(&m1)
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.allocated += m1.TotalAlloc - m0.TotalAlloc
	}
	p.cal = append(p.cal, calibrate())
	return p
}

func (p *phase) ops() int { return len(p.lat) * p.w.unitOps }

// windowPercentile is the favourable quartile over windows of the
// window's latency percentile, a latency sample being the sum of group
// consecutive entries of lat.
func windowPercentile(lat []float64, perWindow, group int, pct float64) float64 {
	var per []float64
	for lo := 0; lo+perWindow <= len(lat); lo += perWindow {
		var samples []float64
		for g := lo; g+group <= lo+perWindow; g += group {
			sum := 0.0
			for _, d := range lat[g : g+group] {
				sum += d
			}
			samples = append(samples, sum)
		}
		sort.Float64s(samples)
		per = append(per, percentile(samples, pct))
	}
	return favourable(per, false)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the ten end-to-end metrics of a phase. The five
// timings are scaled to reference host speed; raw holds them as measured.
func (p *phase) endToEnd(setupS float64) (m map[string]metric, raw map[string]float64) {
	winOps := float64(p.perWindow * p.w.unitOps)
	var rate, cpu []float64
	for w := range p.wall {
		rate = append(rate, winOps/p.wall[w])
		cpu = append(cpu, p.cpu[w]*1e3/winOps)
	}
	raw = map[string]float64{
		"setup_s":       setupS,
		"ops_per_s":     favourable(rate, true),
		"lat_p50_ms":    windowPercentile(p.lat, p.perWindow, p.w.latUnits, 50),
		"lat_p90_ms":    windowPercentile(p.lat, p.perWindow, p.w.latUnits, 90),
		"cpu_ms_per_op": favourable(cpu, false),
	}
	speed := hostSpeed(p.cal)
	ops := float64(p.ops())
	return map[string]metric{
		"setup_s":          {raw["setup_s"] * speed, "s"},
		"ops_per_s":        {raw["ops_per_s"] / speed, "1/s"},
		"lat_p50_ms":       {raw["lat_p50_ms"] * speed, "ms"},
		"lat_p90_ms":       {raw["lat_p90_ms"] * speed, "ms"},
		"cpu_ms_per_op":    {raw["cpu_ms_per_op"] * speed, "ms"},
		"allocs_per_op":    {float64(p.mallocs) / ops, "1"},
		"alloc_kb_per_op":  {float64(p.allocated) / 1024 / ops, "KiB"},
		"words_per_commit": {float64(p.words) / float64(p.commits), "words"},
		"live_heap_mb":     {float64(p.liveHeap) / (1 << 20), "MiB"},
		"ok_frac":          {float64(len(p.lat)-p.failed) / float64(len(p.lat)), "ratio"},
	}, raw
}

// result is one workload's untraced run.
type result struct {
	Workload      string    `json:"workload"`
	Seed          int64     `json:"seed"`
	Ops           int       `json:"ops"`
	Failed        int       `json:"failed"`
	Correct       bool      `json:"correct"`
	Error         string    `json:"error,omitempty"`
	StateHash     string    `json:"state_hash"`
	DisturbedFrac float64   `json:"disturbed_frac"`
	WindowWallS   []float64 `json:"window_wall_s"`
	WindowP50MS   []float64 `json:"window_p50_ms"`
	WindowCPUS    []float64 `json:"window_cpu_s"`
	SetupsS       []float64 `json:"setups_s"`
	// HostSpeed is the host's speed relative to the reference during the
	// measured phase; Raw holds the timing metrics as measured, before
	// scaling by it.
	HostSpeed float64            `json:"host_speed"`
	RefS      []float64          `json:"window_ref_s"`
	Raw       map[string]float64 `json:"raw_timings"`
	Metrics   map[string]metric  `json:"metrics"`
}

// setUp opens the workload on a fresh stream and runs its warm-up; the
// time it takes is one setup_s sample.
func setUp(ctx context.Context, e *env, w *workload, seed int64) (target, stream, float64, error) {
	t0 := time.Now()
	s := w.newStream(seed)
	tgt, err := w.open(ctx, e, s)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := 0; i < w.warmUnits; i++ {
		if span, err := tgt.step(i-w.warmUnits, s.next(i), nil); err != nil {
			tgt.close()
			return nil, nil, 0, fmt.Errorf("%s: warm-up unit %d (%s): %w", w.name, i, span, err)
		}
	}
	return tgt, s, time.Since(t0).Seconds(), nil
}

// runWorkload is the untraced run: set up reps times, measure the fixed
// work once, then check the outputs.
func runWorkload(ctx context.Context, e *env, w *workload, seed int64, perWindow, reps int) (*result, error) {
	res := &result{Workload: w.name, Seed: seed}
	var tgt target
	var s stream
	for r := 0; r < reps; r++ {
		if tgt != nil {
			if err := tgt.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		var took float64
		var err error
		if tgt, s, took, err = setUp(ctx, e, w, seed); err != nil {
			return nil, err
		}
		res.SetupsS = append(res.SetupsS, took)
	}
	defer tgt.close()
	setups := sortedCopy(res.SetupsS)
	setupS := setups[len(setups)/2]

	// The earlier set-ups' garbage must not decide when the collector
	// first runs inside the measured phase.
	runtime.GC()
	w0, c0 := tgt.costs()
	p := measure(tgt, s, w, perWindow, nil)
	w1, c1 := tgt.costs()
	p.words, p.commits = w1-w0, c1-c0
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.liveHeap = ms.HeapAlloc

	res.Ops, res.Failed = p.ops(), p.failed*w.unitOps
	res.DisturbedFrac = disturbedFrac(p.wall)
	res.WindowWallS, res.WindowCPUS = p.wall, p.cpu
	for lo := 0; lo < len(p.lat); lo += p.perWindow {
		res.WindowP50MS = append(res.WindowP50MS, windowPercentile(p.lat[lo:lo+p.perWindow], p.perWindow, w.latUnits, 50))
	}
	res.HostSpeed, res.RefS = hostSpeed(p.cal), p.cal
	res.Metrics, res.Raw = p.endToEnd(setupS)
	err := p.firstErr
	if err == nil {
		res.StateHash, err = tgt.verify(s)
	}
	if err != nil {
		res.Error = err.Error()
	}
	res.Correct = err == nil
	return res, nil
}
