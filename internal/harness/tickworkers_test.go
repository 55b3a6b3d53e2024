package harness

import (
	"bytes"
	"fmt"
	"testing"

	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// crossGate is a per-tick message count at which the simulator is sure
// to fan a tick's machine stepping out across its workers: its step gate
// (sim.stepFanOutMin) is 128, and internal/sim/gate_test.go stops
// compiling if the gate is ever raised past this number.
const crossGate = 256

// TestTickWorkersDeterminism asserts the engine's concurrency contract at
// the level users observe it: CSV rows and message traces are
// byte-identical for every tick-worker count (GOMAXPROCS 1, 2 and 8),
// across the EXPERIMENTS-grid protocols, with and without delivery
// shuffling, with and without an adversary (whose rushing view — the
// full tick's honest traffic in ID order — must survive the parallel
// fan-out).
//
// The simulator steps a light tick inline at any worker count, so a cell
// whose ticks all stay under its gate compares serial against serial. The
// cells marked heavy drop into the quadratic fallback and must have ticks
// of at least crossGate messages (beside the idle and linear ones every
// run has): their multi-worker runs step real machines — the shared
// verify cache and its single-flight, the pooled MAC states, the
// per-machine sign-base memos — in parallel, and under -race that is the
// coverage.
func TestTickWorkersDeterminism(t *testing.T) {
	type cell struct {
		protocol Protocol
		n, f     int
		fault    Fault
		shuffle  int64
		ed25519  bool
		heavy    bool
	}
	cells := []cell{
		{protocol: ProtocolBB, n: 9, f: 0},
		{protocol: ProtocolBB, n: 9, f: 2, fault: FaultSpam},
		{protocol: ProtocolBB, n: 9, f: 2, fault: FaultSpam, shuffle: 7},
		{protocol: ProtocolACS, n: 9, f: 1, fault: FaultCrash, shuffle: 13, heavy: true},
		{protocol: ProtocolWBA, n: 9, f: 0, shuffle: 3},
		{protocol: ProtocolWBA, n: 9, f: 2, fault: FaultReplay},
		{protocol: ProtocolWBA, n: 17, f: 8, fault: FaultCrash, shuffle: 11, ed25519: true, heavy: true},
		{protocol: ProtocolStrongBA, n: 9, f: 2, fault: FaultCrash, shuffle: 5},
		{protocol: ProtocolStrongBA, n: 17, f: 1, fault: FaultCrashLeader, heavy: true},
		{protocol: ProtocolDolevStrong, n: 7, f: 2, fault: FaultSpam, shuffle: 9},
		{protocol: ProtocolBBViaBA, n: 9, f: 1, fault: FaultStagger},
	}
	if testing.Short() {
		cells = cells[:4]
	}
	run := func(c cell) (csv, trace []byte, perTick map[types.Tick]int) {
		t.Helper()
		var tr bytes.Buffer
		traceTo := sim.TraceTo(&tr)
		perTick = make(map[types.Tick]int)
		spec := Spec{
			Protocol:     c.protocol,
			N:            c.n,
			F:            c.f,
			Fault:        c.fault,
			ShuffleSeed:  c.shuffle,
			Ed25519:      c.ed25519,
			MeasureBytes: true,
			OnSend: func(now types.Tick, m sim.Message, honest bool) {
				traceTo(now, m, honest)
				perTick[now]++
			},
		}
		o, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []Outcome{*o}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), tr.Bytes(), perTick
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s-n%d-f%d-%s-shuffle%d", c.protocol, c.n, c.f, c.fault, c.shuffle)
		t.Run(name, func(t *testing.T) {
			testenv.Procs(t, 1)
			wantCSV, wantTrace, perTick := run(c)
			if c.heavy {
				// OnSend skips self-addressed sends, so it can only
				// undercount what a tick delivers.
				fanned := 0
				for _, sent := range perTick {
					if sent >= crossGate {
						fanned++
					}
				}
				if fanned == 0 {
					t.Fatalf("heavy cell has no tick of >= %d messages: its multi-worker runs never fan out", crossGate)
				}
			}
			for _, w := range []int{2, 8} {
				testenv.Procs(t, w)
				gotCSV, gotTrace, _ := run(c)
				if !bytes.Equal(gotCSV, wantCSV) {
					t.Errorf("GOMAXPROCS=%d CSV diverged from serial:\nserial: %s\ngot:    %s", w, wantCSV, gotCSV)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("GOMAXPROCS=%d trace diverged from serial (%d vs %d bytes)", w, len(gotTrace), len(wantTrace))
				}
			}
		})
	}
}
