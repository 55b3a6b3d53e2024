package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adaptiveba/internal/types"
)

// decodeReport reads a report, rejecting any field the schema lacks.
func decodeReport(t *testing.T, path string) report {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rep
}

// deterministic drops the two fields that vary between runs of one grid.
func deterministic(rows []row) []row {
	out := append([]row(nil), rows...)
	for i := range out {
		out[i].WallSeconds, out[i].AllocsPerTick = 0, 0
	}
	return out
}

// requireSameRows fails unless two row lists agree on every deterministic
// field.
func requireSameRows(t *testing.T, want, got []row) {
	t.Helper()
	want, got = deterministic(want), deterministic(got)
	if len(want) != len(got) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestBenchModes runs every bench at a tiny grid through runBench: the
// report carries the whole envelope, every check holds, and a second run
// gives the same rows.
func TestBenchModes(t *testing.T) {
	cases := map[string]struct {
		grid  grid
		check func(*testing.T, grid, []row)
	}{
		"engine":  {grid: grid{Ns: []int{5}, Rounds: 4, Windows: []int{1, 2}}},
		"acs":     {grid: grid{Ns: []int{5}, Rounds: 2, Batches: []int{1, 4}}, check: checkACSRows},
		"explore": {grid: grid{Protocols: []string{"wba"}, Ns: []int{5}, Seed: 1, Generations: 1, Population: 2}},
		"scale":   {grid: grid{Protocols: []string{"bb", "committee", "floodset"}, Fault: "crash", Ns: []int{64}}},
	}
	for _, name := range benchNames() {
		tc, ok := cases[name]
		if !ok {
			t.Errorf("bench %q has no case", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			var reps []report
			for run := 0; run < 2; run++ {
				path := filepath.Join(t.TempDir(), "BENCH_"+name+".json")
				if err := runBench(io.Discard, name, tc.grid, path); err != nil {
					t.Fatal(err)
				}
				reps = append(reps, decodeReport(t, path))
			}
			rep := reps[0]
			if rep.Bench != name || rep.Revision == "" || rep.Host.GoVersion == "" || rep.Host.GOMAXPROCS < 1 {
				t.Errorf("envelope: bench %q revision %q host %+v", rep.Bench, rep.Revision, rep.Host)
			}
			if !reflect.DeepEqual(rep.Grid, tc.grid) {
				t.Errorf("grid %+v, want %+v", rep.Grid, tc.grid)
			}
			if len(rep.Rows) == 0 || len(rep.Checks) == 0 {
				t.Fatalf("%d rows, %d checks", len(rep.Rows), len(rep.Checks))
			}
			for check, ok := range rep.Checks {
				if !ok {
					t.Errorf("check %s is false", check)
				}
			}
			requireSameRows(t, rep.Rows, reps[1].Rows)
			if tc.check != nil {
				tc.check(t, tc.grid, rep.Rows)
			}
		})
	}
}

// checkACSRows pins the batched log's claims at one n: a baseline at
// f ∈ {0, t} and an arm per (f, batch); at f = 0 an arm commits n×batch
// requests per slot, at least n/2 times the baseline; at f = t its subset
// is ≥ n−t; and a larger batch costs fewer words per request.
func checkACSRows(t *testing.T, g grid, rows []row) {
	params, err := types.NewParams(g.Ns[0])
	if err != nil {
		t.Fatal(err)
	}
	n := params.N
	baseline := map[int]row{}
	var arms []row
	for _, r := range rows {
		if r.Protocol == "log" {
			baseline[r.F] = r
		} else {
			arms = append(arms, r)
		}
	}
	if len(baseline) != 2 || len(arms) != 4 {
		t.Fatalf("want 2 baselines and 4 arms, got %d and %d", len(baseline), len(arms))
	}
	for _, a := range arms {
		if a.F == 0 {
			if want := n * a.Batch * g.Rounds; a.Commits != want {
				t.Errorf("f=0 batch=%d: %d commits over %d slots, want %d", a.Batch, a.Commits, g.Rounds, want)
			}
			if float64(a.Commits) < float64(n)/2*float64(baseline[0].Commits) {
				t.Errorf("f=0 batch=%d: %d commits < n/2 × baseline's %d", a.Batch, a.Commits, baseline[0].Commits)
			}
		} else if a.SubsetMin < n-params.T {
			t.Errorf("f=%d batch=%d: subset %d < n-t", a.F, a.Batch, a.SubsetMin)
		}
	}
	perRequest := func(r row) float64 { return float64(r.Words) / float64(r.Commits) }
	if a, b := arms[0], arms[1]; perRequest(b) >= perRequest(a) {
		t.Errorf("batch=%d words/request %.1f not below batch=%d's %.1f", b.Batch, perRequest(b), a.Batch, perRequest(a))
	}
}

// TestWriteReportFailsAfterWriting: a false check fails the command, but
// only after the report is on disk for reading.
func TestWriteReportFailsAfterWriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	err := writeReport(io.Discard, path, &report{
		Bench: "x", Revision: "r", Checks: map[string]bool{"holds": true, "broken": false},
	})
	if err == nil || !strings.Contains(err.Error(), "broken") || strings.Contains(err.Error(), "holds") {
		t.Fatalf("error %v, want one naming only the broken check", err)
	}
	if rep := decodeReport(t, path); rep.Checks["broken"] || !rep.Checks["holds"] {
		t.Errorf("written checks %v", rep.Checks)
	}
}

// TestScaleChecksNeedAgreement: a cell that decided without agreement
// is not a decision.
func TestScaleChecksNeedAgreement(t *testing.T) {
	rows := []row{
		{Protocol: "bb", N: 64, F: 0, Words: 441, Decided: true, Agreement: true},
		{Protocol: "committee", N: 64, F: 0, Words: 2496, Decided: true, Agreement: true},
	}
	if c := scaleChecks(rows); !c["adaptive_wins_few_fault"] || !c["f0_decided_every_n"] {
		t.Fatalf("agreeing rows: %v", c)
	}
	rows[1].Agreement = false
	if c := scaleChecks(rows); c["adaptive_wins_few_fault"] || c["f0_decided_every_n"] {
		t.Errorf("a disagreeing f=0 cell passed: %v", c)
	}
}

// TestCommittedReports keeps the committed BENCH_*.json files honest:
// each decodes into the one schema, names its bench, carries a revision,
// was run over its bench's fixed grid, and holds every check. Outside
// -short every bench re-runs and must reproduce every deterministic
// field; scale re-runs only its cells up to n = 256, about 3 s of its
// minute (the cells from n = 1024 on are the rest).
func TestCommittedReports(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(benches) {
		t.Fatalf("%d committed reports %v, want one per bench %v", len(paths), paths, benchNames())
	}
	for _, path := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		t.Run(name, func(t *testing.T) {
			rep := decodeReport(t, path)
			if rep.Bench != name || rep.Revision == "" {
				t.Fatalf("bench %q revision %q", rep.Bench, rep.Revision)
			}
			if !reflect.DeepEqual(rep.Grid, benches[name].grid) {
				t.Errorf("grid %+v, want the bench's %+v", rep.Grid, benches[name].grid)
			}
			if len(rep.Checks) == 0 {
				t.Error("no checks")
			}
			for check, ok := range rep.Checks {
				if !ok {
					t.Errorf("check %s is false", check)
				}
			}
			if testing.Short() {
				return
			}
			g, want := rep.Grid, rep.Rows
			if name == "scale" {
				const maxN = 256
				g.Ns = slices.DeleteFunc(slices.Clone(g.Ns), func(n int) bool { return n > maxN })
				want = slices.DeleteFunc(slices.Clone(want), func(r row) bool { return r.N > maxN })
			}
			rows, _, err := benches[name].run(io.Discard, g)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, want, rows)
		})
	}
}
