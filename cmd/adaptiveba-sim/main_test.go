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
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/testenv"
)

func TestRunBB(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "bb", "-n", "9", "-f", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protocol    bb", "decision    v", "agreement   true", "per-layer"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunStrongBATrace(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "strongba", "-n", "5", "-trace"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sba/input") {
		t.Errorf("trace missing:\n%.300s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "nope", "-n", "5"}, &out); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-n", "5", "-f", "3"}, &out); err == nil {
		t.Error("f > t accepted")
	}
}

func TestRunAggregateWithCacheStats(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "bb", "-n", "9", "-certmode", "aggregate"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verify $") {
		t.Errorf("cache stats missing:\n%s", out.String())
	}
	// The default scheme (HMAC ring, compact certificates) never consults
	// the cache, so there is no line to print.
	out.Reset()
	if err := run([]string{"-protocol", "bb", "-n", "9"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "verify $") {
		t.Errorf("cache stats printed for a run that made no lookup:\n%s", out.String())
	}
}

func TestRunACSMode(t *testing.T) {
	testenv.Procs(t, 1)
	var out bytes.Buffer
	if err := run([]string{"-acs", "-n", "5", "-f", "1", "-sessions", "2", "-batch", "3", "-inflight", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"protocol    acs × 2 rounds, batch 3",
		"subset 4/5",
		"committed   24 commands",
		"state hash  ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// -acs output is deterministic across GOMAXPROCS.
	testenv.Procs(t, 4)
	var par bytes.Buffer
	if err := run([]string{"-acs", "-n", "5", "-f", "1", "-sessions", "2", "-batch", "3", "-inflight", "2"}, &par); err != nil {
		t.Fatal(err)
	}
	if out.String() != par.String() {
		t.Errorf("GOMAXPROCS changed -acs output:\n--- serial ---\n%s\n--- parallel ---\n%s", out.String(), par.String())
	}
}

func TestRunProtocolACS(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "acs", "-n", "5", "-batch", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protocol    acs", "agreement   true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"-acs", "-n", "5", "-batch", "0"}, &out); err == nil {
		t.Error("batch=0 accepted")
	}
}

func TestRunRejectsBadCertMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "5", "-certmode", "bogus"}, &out); err == nil {
		t.Error("bogus certmode accepted")
	}
}

// TestHelpListsEveryKindAndPattern: -protocol lists every kind of the
// protocol table and -fault every fault pattern of the pattern table, in
// table order.
func TestHelpListsEveryKindAndPattern(t *testing.T) {
	var kinds, faults []string
	for _, k := range protocols.Kinds() {
		kinds = append(kinds, string(k))
	}
	for _, p := range attacks.Patterns {
		faults = append(faults, p.Name)
	}
	if got := helpList(t, "protocol: "); !slices.Equal(got, kinds) {
		t.Errorf("-protocol lists %q, the protocol table %q", got, kinds)
	}
	if got := helpList(t, "fault pattern: "); !slices.Equal(got, faults) {
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
