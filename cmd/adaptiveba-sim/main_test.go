package main

import (
	"bytes"
	"strings"
	"testing"
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

func TestRunNoVerifyCacheMatchesDefault(t *testing.T) {
	// The fast path must not perturb any reported metric; only the cache
	// stat line itself may differ.
	var cached, uncached bytes.Buffer
	args := []string{"-protocol", "bb", "-n", "9", "-f", "1", "-certmode", "aggregate"}
	if err := run(args, &cached); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-no-verify-cache"), &uncached); err != nil {
		t.Fatal(err)
	}
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "verify $") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if strip(cached.String()) != strip(uncached.String()) {
		t.Errorf("-no-verify-cache changed metrics:\n--- cached ---\n%s\n--- uncached ---\n%s",
			cached.String(), uncached.String())
	}
	if strings.Contains(uncached.String(), "verify $") {
		t.Error("cache stat line printed with cache off")
	}
}

func TestRunACSMode(t *testing.T) {
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
	// -acs output is deterministic across tick-worker counts.
	var par bytes.Buffer
	if err := run([]string{"-acs", "-n", "5", "-f", "1", "-sessions", "2", "-batch", "3", "-inflight", "2", "-tick-workers", "4"}, &par); err != nil {
		t.Fatal(err)
	}
	if out.String() != par.String() {
		t.Errorf("-tick-workers changed -acs output:\n--- serial ---\n%s\n--- parallel ---\n%s", out.String(), par.String())
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
