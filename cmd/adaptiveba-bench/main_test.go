package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"t1-bb", "t1-wba", "t1-strongba", "f1", "ablate-quorum", "dr-sigs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunOneExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "ablate-cert"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "aggregate") {
		t.Errorf("report missing content:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "missing"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run(nil, &out); err == nil {
		t.Error("no mode accepted")
	}
}

func TestSweepCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "-protocol", "wba", "-ns", "5,9", "-fs", "0,1", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "protocol,n,t,f") {
		t.Errorf("CSV header missing:\n%s", got)
	}
	if !strings.Contains(got, "wba,9,4,1") {
		t.Errorf("CSV rows missing:\n%s", got)
	}
}

func TestSweepTable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "-ns", "5", "-fs", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bb") {
		t.Errorf("table missing:\n%s", out.String())
	}
}

func TestSweepBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "-ns", "x"}, &out); err == nil {
		t.Error("bad ns accepted")
	}
	if err := run([]string{"-sweep", "-ns", ""}, &out); err == nil {
		t.Error("empty ns accepted")
	}
}

func TestSweepPlot(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "-protocol", "bb", "-ns", "11", "-fs", "0,2", "-plot"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "bb: words vs f") || !strings.Contains(got, "legend: * n=11") {
		t.Errorf("plot output:\n%s", got)
	}
}

func TestBenchACSJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench_acs.json")
	var out bytes.Buffer
	err := run([]string{
		"-bench-acs-json", path, "-ns", "5", "-batches", "1,4", "-sessions", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep acsBench
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Results) != 1 || rep.Results[0].N != 5 {
		t.Fatalf("results: %+v", rep.Results)
	}
	group := rep.Results[0]
	if len(group.Baselines) != 2 || len(group.Arms) != 4 {
		t.Fatalf("want 2 baselines and 4 arms, got %d and %d", len(group.Baselines), len(group.Arms))
	}
	for _, arm := range group.Arms {
		if !arm.DecisionsIdentical {
			t.Errorf("f=%d batch=%d: decisions not identical across workers/windows", arm.F, arm.Batch)
		}
		if arm.F == 0 {
			if want := float64(group.N * arm.Batch); arm.RequestsPerSlot != want {
				t.Errorf("f=0 batch=%d: %.1f requests/slot, want %.1f", arm.Batch, arm.RequestsPerSlot, want)
			}
			if arm.RatioVsSingleProposer < float64(group.N)/2 {
				t.Errorf("f=0 batch=%d: ratio %.1f < n/2", arm.Batch, arm.RatioVsSingleProposer)
			}
		} else if arm.SubsetMin < group.N-group.T {
			t.Errorf("f=%d batch=%d: subset %d < n-t", arm.F, arm.Batch, arm.SubsetMin)
		}
	}
	// Larger batches amortize the per-request word cost.
	if a, b := group.Arms[0], group.Arms[1]; b.WordsPerRequest >= a.WordsPerRequest {
		t.Errorf("batch=4 words/request %.1f not below batch=1's %.1f", b.WordsPerRequest, a.WordsPerRequest)
	}
}

func TestSweepTickWorkersMatchesDefault(t *testing.T) {
	argsFor := func(extra ...string) []string {
		return append([]string{"-sweep", "-protocol", "bb", "-ns", "5,9", "-fs", "0,1", "-csv"}, extra...)
	}
	var serial, parallel bytes.Buffer
	if err := run(argsFor("-tick-workers", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(argsFor("-tick-workers", "8"), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("-tick-workers changed the sweep CSV:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

func TestSweepNoVerifyCacheMatchesDefault(t *testing.T) {
	argsFor := func(extra ...string) []string {
		return append([]string{"-sweep", "-protocol", "bb", "-ns", "5,9", "-fs", "0,1", "-certmode", "aggregate", "-csv"}, extra...)
	}
	var withCache, noCache bytes.Buffer
	if err := run(argsFor(), &withCache); err != nil {
		t.Fatal(err)
	}
	if err := run(argsFor("-no-verify-cache"), &noCache); err != nil {
		t.Fatal(err)
	}
	if withCache.String() != noCache.String() {
		t.Errorf("-no-verify-cache changed the sweep CSV:\n--- cached ---\n%s\n--- uncached ---\n%s",
			withCache.String(), noCache.String())
	}
}

func TestBadCertMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "-ns", "5", "-fs", "0", "-certmode", "bogus"}, &out); err == nil {
		t.Error("bogus certmode accepted")
	}
}
