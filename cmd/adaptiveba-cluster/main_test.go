package main

import (
	"bytes"
	"strings"
	"testing"

	"adaptiveba/internal/testenv"
)

func TestClusterBB(t *testing.T) {
	testenv.NoLeaks(t)
	var out bytes.Buffer
	if err := run([]string{"-protocol", "bb", "-n", "5", "-value", "hello", "-tick", "10ms"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Count(got, `decided "hello"`) != 5 {
		t.Errorf("not all nodes decided hello:\n%s", got)
	}
}

func TestClusterStrongBAWithCrash(t *testing.T) {
	testenv.NoLeaks(t)
	var out bytes.Buffer
	if err := run([]string{"-protocol", "strongba", "-n", "5", "-crash", "1", "-value", "1", "-tick", "10ms"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// 4 live nodes, all deciding 1 despite the crash (via the fallback).
	if strings.Count(got, `decided "0x01"`) != 4 {
		t.Errorf("live nodes did not all decide 1:\n%s", got)
	}
}

func TestClusterValidation(t *testing.T) {
	testenv.NoLeaks(t)
	var out bytes.Buffer
	if err := run([]string{"-n", "2"}, &out); err == nil {
		t.Error("tiny n accepted")
	}
	if err := run([]string{"-n", "5", "-crash", "3"}, &out); err == nil {
		t.Error("crash > t accepted")
	}
	if err := run([]string{"-protocol", "nope", "-n", "3"}, &out); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := run([]string{"-protocol", "strongba", "-n", "3", "-value", "x"}, &out); err == nil {
		t.Error("non-binary strongba value accepted")
	}
}
