package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests check the plumbing, not the timings: a short calibration
// sample keeps them fast.
func TestMain(m *testing.M) {
	refReps = 1
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// tiny shrinks a workload's warm-up for the tests (the preload of 1024
// keys stays: it is what the read-back checks).
func tiny(w *workload) *workload {
	c := *w
	c.warmUnits = min(w.warmUnits, 2)
	return &c
}

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// Every workload at about 1/100 size, with the correctness gate on. The
// word counts are the program's own: 132 per serial commit at n=4, 14437
// per round at n=9 with one crash.
func TestSmokeAllWorkloads(t *testing.T) {
	e := testEnv(t)
	words := map[string]float64{"svc-put-serial": 132, "svc-read-mostly": 132, "lib-acs-crash1": 57748.0 / 512}
	for _, w := range workloads {
		res, err := runWorkload(context.Background(), e, tiny(w), 1, w.roundTo, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.StateHash == "" {
			t.Errorf("%s: correct=%t failed=%d state_hash=%q error=%q", w.name, res.Correct, res.Failed, res.StateHash, res.Error)
		}
		if want := numWindows * w.roundTo * w.unitOps; res.Ops != want {
			t.Errorf("%s: ran %d ops, want %d", w.name, res.Ops, want)
		}
		if len(res.Metrics) != len(endToEndDefs) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEndDefs))
		}
		for _, d := range endToEndDefs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present=%t), want a positive value in %s", w.name, d.name, m, ok, d.unit)
			}
		}
		if want, ok := words[w.name]; ok && !near(res.Metrics["words_per_commit"].Value, want) {
			t.Errorf("%s: words_per_commit = %v, want %v", w.name, res.Metrics["words_per_commit"].Value, want)
		}
		if got := res.Metrics["ok_frac"].Value; got != 1 {
			t.Errorf("%s: ok_frac = %v", w.name, got)
		}
		// The result line must round-trip as JSON with exactly four keys.
		line, err := json.Marshal(driverLine{res.Correct, res.Ops, res.Failed, res.Metrics})
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]json.RawMessage
		if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
			t.Errorf("%s: result line %s: %v", w.name, line, err)
		}
	}
	if left, _ := os.ReadDir(e.root); len(left) != 0 {
		t.Errorf("%d storage directories left behind in %s", len(left), e.root)
	}
}

// wrongModel corrupts the model one value after the stream is built.
type wrongModel struct{ stream }

func (w wrongModel) state() (model, int) {
	m, n := w.stream.state()
	for k, v := range m {
		bad := append([]byte(nil), v...)
		bad[0] ^= 1
		m[k] = bad
		break
	}
	return m, n
}

func TestGateFailsOnAWrongModel(t *testing.T) {
	e := testEnv(t)
	w := tiny(workloadByName("svc-put-burst32"))
	honest := w.newStream
	w.newStream = func(seed int64) stream { return wrongModel{honest(seed)} }
	res, err := runWorkload(context.Background(), e, w, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || !strings.Contains(res.Error, "read-back") {
		t.Errorf("gate passed a wrong model: correct=%t error=%q", res.Correct, res.Error)
	}
}

// One ladder end to end: spans of a unit share its ID across the rungs
// and the file holds every span.
func TestLadderSpansLineUp(t *testing.T) {
	e := testEnv(t)
	w := tiny(workloadByName("svc-put-burst32"))
	l, err := runLadder(context.Background(), e, w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.top.firstErr != nil {
		t.Fatal(l.top.firstErr)
	}
	perRung := map[string]map[int]bool{}
	for _, sp := range l.spans {
		if perRung[sp.Rung] == nil {
			perRung[sp.Rung] = map[int]bool{}
		}
		perRung[sp.Rung][sp.ID] = true
	}
	for _, rung := range []string{"service.Core", "engine.RunACSLog", "storage", "storage/Audit.Append", "storage/blob.Put"} {
		if len(perRung[rung]) != numWindows {
			t.Errorf("rung %s has spans for %d of %d units", rung, len(perRung[rung]), numWindows)
		}
	}
	if len(perRung[topRung]) != numWindows/2 {
		t.Errorf("the public rung traced %d units, want every other window (%d)", len(perRung[topRung]), numWindows/2)
	}
	f, err := os.Open(filepath.Join(e.out, "trace-"+w.name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.Name == "" || sp.Rung == "" {
			t.Fatalf("span line %d: %q: %v", lines, sc.Text(), err)
		}
	}
	if lines != len(l.spans) {
		t.Errorf("span file has %d lines for %d spans", lines, len(l.spans))
	}
	if v := l.selfMS("service.Core", "engine.RunACSLog", "storage"); !(v == v) {
		t.Error("no self time for service.Core")
	}
}

// BENCHMARK.json must say what the code does.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, want %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why == "" || len(b.Workloads[i].Why) > 200 {
			t.Errorf("workload %d = %+v, want %s with a why of at most 200 characters", i, b.Workloads[i], w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		better := "lower"
		if d.higherBetter {
			better = "higher"
		}
		if got := b.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayerNames) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayerNames))
	}
	for i, name := range perLayerNames {
		got := b.PerLayer[i]
		if got.Name != name || !nameRE.MatchString(name) || got.Unit == "" || (got.Better != "lower" && got.Better != "higher") {
			t.Errorf("per_layer[%d] = %+v, want %s", i, got, name)
		}
	}
}
