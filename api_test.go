package adaptiveba

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/testenv"
)

// TestSentinelErrors pins the typed error identities — and that each
// still matches the broad class it refines.
func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		err  func() error
		want []error
	}{
		{"bad n", func() error {
			_, err := BroadcastContext(ctx, 2, []byte("v"))
			return err
		}, []error{ErrBadN, ErrOptions}},
		{"too many faults", func() error {
			_, err := BroadcastContext(ctx, 5, []byte("v"), WithFaults(3))
			return err
		}, []error{ErrTooManyFaults, ErrOptions}},
		{"no quorum", func() error {
			_, err := BroadcastContext(ctx, 5, []byte("v"), WithThreshold(3))
			return err
		}, []error{ErrNoQuorum, ErrOptions}},
		{"too many faults before inputs", func() error {
			_, err := WeakAgreeContext(ctx, 5, nil, nil, WithFaults(9))
			return err
		}, []error{ErrTooManyFaults, ErrOptions}},
		{"run many bad pattern", func() error {
			_, err := RunMany(ctx, BroadcastRequest(5, 0, []byte("v"), WithPattern(FaultReplay)))
			return err
		}, []error{ErrOptions}},
		{"run many mixed n", func() error {
			_, err := RunMany(ctx, BroadcastRequest(5, 0, []byte("v")), BroadcastRequest(7, 0, []byte("v")))
			return err
		}, []error{ErrBadN, ErrOptions}},
		{"run many empty", func() error {
			_, err := RunMany(ctx)
			return err
		}, []error{ErrInputs}},
	}
	for _, c := range cases {
		err := c.err()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		for _, want := range c.want {
			if !errors.Is(err, want) {
				t.Errorf("%s: errors.Is(%v, %v) = false", c.name, err, want)
			}
		}
	}
}

// TestContextCancellation covers both halt paths: a context canceled
// before the run starts, and one canceled mid-run (triggered from the
// trace stream). Both must return ErrCanceled promptly — which also
// matches context.Canceled — and leak no goroutines (the run is fully
// synchronous, checked by testenv.NoLeaks).
func TestContextCancellation(t *testing.T) {
	testenv.NoLeaks(t)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BroadcastContext(pre, 9, []byte("v")); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled: err = %v, want ErrCanceled", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled: err %v does not match context.Canceled", err)
	}

	// Mid-run: the trace writer observes traffic while the simulator is
	// inside the run, so canceling from it exercises the per-tick poll.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tracer := &cancelAfter{cancel: cancel, after: 3}
	if _, err := BroadcastContext(ctx, 9, []byte("v"), WithTrace(tracer)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-run: err = %v, want ErrCanceled", err)
	}
	if tracer.writes > tracer.after+64 {
		t.Errorf("cancellation was not prompt: %d trace writes after trigger", tracer.writes-tracer.after)
	}

	// RunMany through the engine honors cancellation too.
	if _, err := RunMany(pre, BroadcastRequest(5, 0, []byte("v"))); !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunMany pre-canceled: err = %v, want ErrCanceled", err)
	}
}

// cancelAfter cancels a context after `after` writes, then keeps
// counting so the test can bound how much work ran post-cancel.
type cancelAfter struct {
	cancel context.CancelFunc
	after  int
	writes int
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	c.writes++
	if c.writes == c.after {
		c.cancel()
	}
	return len(p), nil
}

// TestRunManyMatchesSolo proves the fan-out changes nothing observable:
// every RunMany result carries the same decision and word count as a
// solo run of the same instance, at any in-flight window.
func TestRunManyMatchesSolo(t *testing.T) {
	const n = 5
	wbaInputs := make([][]byte, n)
	for i := range wbaInputs {
		wbaInputs[i] = []byte("w")
	}
	bits := []bool{true, true, true, true, true}

	soloBB, err := BroadcastContext(bg, n, []byte("cmd"), WithFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	soloWBA, err := WeakAgreeContext(bg, n, wbaInputs, nil, WithFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	soloSBA, err := StrongAgreeBinaryContext(bg, n, bits, WithFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	solo := []*Result{soloBB, soloWBA, soloSBA}

	var serial []*Result
	for _, w := range []int{1, 3} {
		results, err := RunMany(context.Background(),
			BroadcastRequest(n, 0, []byte("cmd"), WithFaults(1), WithInflight(w)),
			WeakAgreeRequest(n, wbaInputs, nil),
			StrongAgreeBinaryRequest(n, bits),
		)
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if len(results) != 3 {
			t.Fatalf("W=%d: %d results", w, len(results))
		}
		for i, r := range results {
			if !r.AllDecided || !r.Agreement {
				t.Errorf("W=%d request %d: decided=%t agree=%t", w, i, r.AllDecided, r.Agreement)
			}
			if !bytes.Equal(r.Decision, solo[i].Decision) {
				t.Errorf("W=%d request %d: decision %q, solo %q", w, i, r.Decision, solo[i].Decision)
			}
			if r.Words != solo[i].Words {
				t.Errorf("W=%d request %d: words %d, solo %d", w, i, r.Words, solo[i].Words)
			}
			if r.FallbackProcesses != solo[i].FallbackProcesses {
				t.Errorf("W=%d request %d: fallback %d, solo %d", w, i, r.FallbackProcesses, solo[i].FallbackProcesses)
			}
		}
		if w == 1 {
			serial = results
			continue
		}
		for i := range results {
			if !reflect.DeepEqual(results[i], serial[i]) {
				t.Errorf("W=%d request %d diverges from serial: %+v vs %+v", w, i, results[i], serial[i])
			}
		}
	}
}

// TestReplicateLogInflight pins the pipelined log against the serial
// one: WithInflight changes throughput, never a committed entry.
func TestReplicateLogInflight(t *testing.T) {
	const n, slots = 5, 6
	queues := make([][][]byte, n)
	for i := range queues {
		queues[i] = [][]byte{[]byte(fmt.Sprintf("SET k%d p%d", i, i)), []byte(fmt.Sprintf("DEL k%d", i))}
	}
	serial, err := ReplicateLogContext(context.Background(), n, queues, slots, WithFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	piped, err := ReplicateLogContext(context.Background(), n, queues, slots, WithFaults(1), WithInflight(4))
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Agreement || !piped.Agreement {
		t.Fatalf("agreement: serial=%t piped=%t", serial.Agreement, piped.Agreement)
	}
	if !reflect.DeepEqual(serial.Entries, piped.Entries) {
		t.Errorf("pipelining changed the log:\nserial: %+v\npiped: %+v", serial.Entries, piped.Entries)
	}
	if serial.Words != piped.Words {
		t.Errorf("pipelining changed the cost: serial %d words, piped %d", serial.Words, piped.Words)
	}
}

// TestSessionGroupsCountTheCallsCacheLookups pins the verification-cache
// counters of a RunMany call on real signatures whose sessions run as
// concurrent simulations: they count the call's lookups once, the same
// at GOMAXPROCS 2 (two groups on one suite) as at 1. Each session signs
// under a tag of its own, so no two groups look up one key, and hits and
// misses are both exact.
func TestSessionGroupsCountTheCallsCacheLookups(t *testing.T) {
	const n = 4
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = []byte("w")
	}
	reqs := []Request{
		BroadcastRequest(n, 0, []byte("cmd"), WithFaults(1), WithRealSignatures()),
		WeakAgreeRequest(n, inputs, nil),
		BroadcastRequest(n, 2, []byte("cmd2")),
		StrongAgreeBinaryRequest(n, []bool{true, false, true, true}),
	}
	var want metrics.Report
	for _, procs := range []int{1, 2} {
		testenv.Procs(t, procs)
		rep, err := run(bg, false, reqs)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Metrics
		t.Logf("GOMAXPROCS %d: %d hits, %d misses", procs, got.CacheHits, got.CacheMisses)
		if procs == 1 {
			if want = got; want.CacheMisses == 0 {
				t.Fatal("the run verified nothing through the cache")
			}
			continue
		}
		if got.CacheMisses != want.CacheMisses || got.CacheHits != want.CacheHits {
			t.Errorf("GOMAXPROCS %d: %d hits, %d misses; GOMAXPROCS 1: %d hits, %d misses",
				procs, got.CacheHits, got.CacheMisses, want.CacheHits, want.CacheMisses)
		}
	}
}

// TestFaultPatternTable holds every surface that takes a fault pattern
// name to the one table, attacks.Patterns: the harness runs every entry
// and refuses a name outside it; the public API accepts exactly its
// three FaultPattern constants; and the multi-session paths, RunMany and
// harness.RunEngine, accept exactly the entries marked as tick-0
// crashes. (Each command's -fault help lists the table too, which its
// own TestHelpLists* test holds.)
func TestFaultPatternTable(t *testing.T) {
	ctx := context.Background()
	public := map[string]bool{string(FaultCrash): true, string(FaultCrashLeader): true, string(FaultReplay): true}
	names := []string{"crash-all"}
	for _, p := range attacks.Patterns {
		names = append(names, p.Name)
	}
	for _, name := range names {
		p, inTable := attacks.PatternNamed(name)
		spec := harness.Spec{Protocol: harness.ProtocolBB, N: 5, F: 1, Fault: harness.Fault(name)}
		if _, err := harness.Run(spec); (err == nil) != inTable {
			t.Errorf("%q: harness.Run error %v, in the table %t", name, err, inTable)
		}
		if _, err := harness.RunEngine(spec, 2, 0); (err == nil) != p.Crash {
			t.Errorf("%q: harness.RunEngine error %v, tick-0 crash %t", name, err, p.Crash)
		}
		opts := []Option{WithFaults(1), WithPattern(FaultPattern(name))}
		if _, err := BroadcastContext(ctx, 5, []byte("v"), opts...); (err == nil) != public[name] {
			t.Errorf("%q: BroadcastContext error %v, public %t", name, err, public[name])
		}
		if _, err := RunMany(ctx, BroadcastRequest(5, 0, []byte("v"), opts...)); (err == nil) != p.Crash {
			t.Errorf("%q: RunMany error %v, tick-0 crash %t", name, err, p.Crash)
		}
	}
	for name := range public {
		if _, ok := attacks.PatternNamed(name); !ok {
			t.Errorf("public pattern %q is not in the table", name)
		}
	}
}
