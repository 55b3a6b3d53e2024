package adaptiveba

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// bg is the context of every test run that exercises no cancellation.
var bg = context.Background()

func TestBroadcastFailureFree(t *testing.T) {
	res, err := BroadcastContext(bg, 9, []byte("block-42"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || !res.Agreement {
		t.Fatalf("run failed: %+v", res)
	}
	if !bytes.Equal(res.Decision, []byte("block-42")) {
		t.Errorf("decision %q", res.Decision)
	}
	if res.Bottom {
		t.Error("bottom flagged for a real decision")
	}
	if res.Words <= 0 || res.Words > int64(14*9) {
		t.Errorf("failure-free words = %d, want small linear", res.Words)
	}
}

func TestBroadcastWithCrashes(t *testing.T) {
	res, err := BroadcastContext(bg, 9, []byte("v"), WithFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || !res.Agreement {
		t.Fatalf("run failed: %+v", res)
	}
	if !bytes.Equal(res.Decision, []byte("v")) {
		t.Errorf("validity violated: %q", res.Decision)
	}
}

func TestBroadcastCrashedSender(t *testing.T) {
	res, err := BroadcastContext(bg, 9, []byte("v"), WithFaults(1), WithPattern(FaultCrashLeader))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bottom || res.Decision != nil {
		t.Errorf("want ⊥ for a crashed sender, got %q", res.Decision)
	}
	if !res.Agreement {
		t.Error("agreement violated")
	}
}

func TestWeakAgreeUnanimous(t *testing.T) {
	inputs := make([][]byte, 9)
	for i := range inputs {
		inputs[i] = []byte("same")
	}
	res, err := WeakAgreeContext(bg, 9, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Decision, []byte("same")) {
		t.Errorf("decision %q", res.Decision)
	}
}

func TestWeakAgreePredicate(t *testing.T) {
	inputs := make([][]byte, 5)
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("tx:%d", i))
	}
	pred := func(v []byte) bool { return bytes.HasPrefix(v, []byte("tx:")) }
	res, err := WeakAgreeContext(bg, 5, inputs, pred)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !res.AllDecided {
		t.Fatal("run failed")
	}
	if !res.Bottom && !pred(res.Decision) {
		t.Errorf("decision %q violates the predicate", res.Decision)
	}
}

func TestWeakAgreeInputValidation(t *testing.T) {
	if _, err := WeakAgreeContext(bg, 5, make([][]byte, 3), nil); !errors.Is(err, ErrInputs) {
		t.Errorf("wrong input count: %v", err)
	}
	inputs := [][]byte{[]byte("a"), nil, []byte("c"), []byte("d"), []byte("e")}
	if _, err := WeakAgreeContext(bg, 5, inputs, nil); !errors.Is(err, ErrInputs) {
		t.Errorf("empty input: %v", err)
	}
}

func TestStrongAgreeBinaryUnanimous(t *testing.T) {
	inputs := make([]bool, 9)
	for i := range inputs {
		inputs[i] = true
	}
	res, err := StrongAgreeBinaryContext(bg, 9, inputs)
	if err != nil {
		t.Fatal(err)
	}
	bit, ok := res.Bit()
	if !ok || !bit {
		t.Errorf("Bit() = %v, %v", bit, ok)
	}
	if res.FallbackProcesses != 0 {
		t.Errorf("fallback ran in a failure-free run")
	}
	if res.Words > int64(6*9) {
		t.Errorf("failure-free strong BA words = %d, want O(n)", res.Words)
	}
}

func TestStrongAgreeBinarySplit(t *testing.T) {
	inputs := make([]bool, 9)
	for i := range inputs {
		inputs[i] = i%2 == 0
	}
	res, err := StrongAgreeBinaryContext(bg, 9, inputs, WithFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !res.AllDecided {
		t.Fatal("run failed")
	}
}

func TestStrongAgreeInputValidation(t *testing.T) {
	if _, err := StrongAgreeBinaryContext(bg, 5, []bool{true}); !errors.Is(err, ErrInputs) {
		t.Errorf("wrong input count: %v", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := BroadcastContext(bg, 1, []byte("v")); !errors.Is(err, ErrOptions) {
		t.Errorf("tiny n: %v", err)
	}
	if _, err := BroadcastContext(bg, 5, []byte("v"), WithFaults(3)); !errors.Is(err, ErrOptions) {
		t.Errorf("f > t: %v", err)
	}
	if _, err := BroadcastContext(bg, 5, []byte("v"), WithPattern("weird")); !errors.Is(err, ErrOptions) {
		t.Errorf("bad pattern: %v", err)
	}
}

func TestTraceOption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := BroadcastContext(bg, 5, []byte("v"), WithTrace(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bb/sender") {
		t.Errorf("trace missing protocol messages:\n%.300s", buf.String())
	}
}

func TestLayerWordsExposed(t *testing.T) {
	res, err := BroadcastContext(bg, 9, []byte("v"), WithFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for layer := range res.LayerWords {
		if strings.Contains(layer, "wba") {
			found = true
		}
	}
	if !found {
		t.Errorf("layer breakdown missing: %v", res.LayerWords)
	}
}

func TestRealSignatures(t *testing.T) {
	res, err := BroadcastContext(bg, 5, []byte("v"), WithRealSignatures())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Decision, []byte("v")) {
		t.Errorf("decision %q", res.Decision)
	}
}

func TestReplayPattern(t *testing.T) {
	res, err := BroadcastContext(bg, 9, []byte("v"), WithFaults(2), WithPattern(FaultReplay), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !bytes.Equal(res.Decision, []byte("v")) {
		t.Errorf("replay run: agreement=%v decision=%q", res.Agreement, res.Decision)
	}
}

func TestAgreeStrongMultivalued(t *testing.T) {
	inputs := make([][]byte, 9)
	for i := range inputs {
		inputs[i] = []byte("ledger-head-7f3a")
	}
	res, err := StrongAgreeContext(bg, 9, inputs, WithFaults(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || !res.Agreement {
		t.Fatalf("run failed: %+v", res)
	}
	if !bytes.Equal(res.Decision, []byte("ledger-head-7f3a")) {
		t.Errorf("strong unanimity violated: %q", res.Decision)
	}
	// Non-adaptive: even a small n with failures pays quadratic+ words.
	if res.Words < int64(9*9) {
		t.Errorf("suspiciously few words (%d) for the non-adaptive protocol", res.Words)
	}
}

func TestAgreeStrongValidation(t *testing.T) {
	if _, err := StrongAgreeContext(bg, 5, make([][]byte, 2)); !errors.Is(err, ErrInputs) {
		t.Errorf("wrong count: %v", err)
	}
	inputs := [][]byte{[]byte("a"), {}, []byte("c"), []byte("d"), []byte("e")}
	if _, err := StrongAgreeContext(bg, 5, inputs); !errors.Is(err, ErrInputs) {
		t.Errorf("empty input: %v", err)
	}
}
