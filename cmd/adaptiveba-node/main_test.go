package main

import "testing"

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-n", "5", "-addrs", "a,b"}); err == nil {
		t.Error("wrong addr count accepted")
	}
	if err := run([]string{"-n", "2"}); err == nil {
		t.Error("tiny n accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}
