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
	"adaptiveba/internal/types"
)

func TestTraceSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "wba", "-n", "9", "-f", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"wba run:", "wba/propose", "wba/finalized", "from p2"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q:\n%s", want, got)
		}
	}
	// The crashed p1's phase is silent: no propose from p1.
	if strings.Contains(got, "wba/propose") && strings.Contains(got, "from p1\n") {
		t.Errorf("crashed leader's phase not silent:\n%s", got)
	}
}

func TestTraceExpanded(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "strongba", "-n", "5", "-expand", "-max-ticks", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "p1 -> p0") {
		t.Errorf("expanded trace:\n%s", out.String())
	}
}

func TestTraceBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "nope"}, &out); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestSenderSummaryRanges(t *testing.T) {
	froms := map[types.ProcessID]bool{0: true, 1: true, 2: true, 5: true, 7: true, 8: true}
	if got := senderSummary(froms); got != "p0..p2,p5,p7..p8" {
		t.Errorf("senderSummary = %q", got)
	}
	if got := senderSummary(nil); got != "-" {
		t.Errorf("empty = %q", got)
	}
	if got := senderSummary(map[types.ProcessID]bool{3: true}); got != "p3" {
		t.Errorf("single = %q", got)
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
