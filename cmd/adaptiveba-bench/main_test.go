package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/testenv"
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
	if err := run([]string{"-bench", "missing"}, &out); err == nil {
		t.Error("unknown bench accepted")
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

// TestSweepTickWorkersMatchesDefault: the sweep CSV is the same whether
// grid points run one at a time (GOMAXPROCS 1) or on eight workers.
func TestSweepTickWorkersMatchesDefault(t *testing.T) {
	args := []string{"-sweep", "-protocol", "bb", "-ns", "5,9", "-fs", "0,1", "-csv"}
	var serial, parallel bytes.Buffer
	testenv.Procs(t, 1)
	if err := run(args, &serial); err != nil {
		t.Fatal(err)
	}
	testenv.Procs(t, 8)
	if err := run(args, &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("GOMAXPROCS changed the sweep CSV:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

func TestBadCertMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "-ns", "5", "-fs", "0", "-certmode", "bogus"}, &out); err == nil {
		t.Error("bogus certmode accepted")
	}
}

// TestHelpListsEveryPattern: -fault lists every fault pattern of the
// pattern table, in table order.
func TestHelpListsEveryPattern(t *testing.T) {
	var faults []string
	for _, p := range attacks.Patterns {
		faults = append(faults, p.Name)
	}
	if got := helpList(t, "sweep fault pattern: "); !slices.Equal(got, faults) {
		t.Errorf("-fault lists %q, the pattern table %q", got, faults)
	}
}

// helpList runs the command with -h and returns the " | "-separated
// names its usage gives after prefix, up to the flag's default.
func helpList(t *testing.T, prefix string) []string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	err = run([]string{"-h"}, io.Discard)
	os.Stderr = stderr
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	usage, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	_, list, _ := strings.Cut(string(usage), prefix)
	list, _, _ = strings.Cut(list, " (default")
	return strings.Split(list, " | ")
}
