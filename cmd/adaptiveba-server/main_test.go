package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"adaptiveba/internal/testenv"
)

// TestSmoke runs the full smoke exercise: server + two concurrent
// clients over loopback, mixed inline/anchored payloads, a snapshot
// mid-run, and a verification walk at exit. The run leaves no goroutine
// or descriptor behind.
func TestSmoke(t *testing.T) {
	testenv.NoLeaks(t)
	var out bytes.Buffer
	if err := run([]string{
		"-smoke", "-smoke-writes", "4",
		"-blob-dir", filepath.Join(t.TempDir(), "blobs"),
	}, &out); err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "verified=true") {
		t.Fatalf("smoke did not verify clean:\n%s", got)
	}
	if !strings.Contains(got, "snapshots") {
		t.Fatalf("smoke summary missing snapshot count:\n%s", got)
	}
}

func TestSmokeWithFaults(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{
		"-smoke", "-smoke-writes", "3", "-n", "5", "-f", "2",
		"-blob-dir", filepath.Join(t.TempDir(), "blobs"),
	}, &out); err != nil {
		t.Fatalf("smoke with crash faults failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verified=true") {
		t.Fatalf("faulty smoke did not verify clean:\n%s", out.String())
	}
}

func TestServerRequiresBlobDir(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-addr", "127.0.0.1:0"}, &out); err == nil {
		t.Fatal("server started without -blob-dir")
	}
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-smoke", "-smoke-writes", "0"}, &out); err == nil {
		t.Fatal("zero smoke writes accepted")
	}
}
