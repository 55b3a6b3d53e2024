package harness

import (
	"bytes"
	"fmt"
	"testing"

	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
)

// TestTickWorkersDeterminism asserts the engine's determinism contract at
// the level users observe it: CSV rows and message traces are
// byte-identical at GOMAXPROCS 1, 2 and 8, across the EXPERIMENTS-grid
// protocols, with and without delivery shuffling, with and without an
// adversary (whose rushing view is the full tick's honest traffic in ID
// order). A simulation steps on one goroutine, so nothing in a run may
// read GOMAXPROCS; this pins that nothing does.
func TestTickWorkersDeterminism(t *testing.T) {
	type cell struct {
		protocol Protocol
		n, f     int
		fault    Fault
		shuffle  int64
		ed25519  bool
	}
	cells := []cell{
		{protocol: ProtocolBB, n: 9, f: 0},
		{protocol: ProtocolBB, n: 9, f: 2, fault: FaultSpam},
		{protocol: ProtocolBB, n: 9, f: 2, fault: FaultSpam, shuffle: 7},
		{protocol: ProtocolACS, n: 9, f: 1, fault: FaultCrash, shuffle: 13},
		{protocol: ProtocolWBA, n: 9, f: 0, shuffle: 3},
		{protocol: ProtocolWBA, n: 9, f: 2, fault: FaultReplay},
		{protocol: ProtocolWBA, n: 17, f: 8, fault: FaultCrash, shuffle: 11, ed25519: true},
		{protocol: ProtocolStrongBA, n: 9, f: 2, fault: FaultCrash, shuffle: 5},
		{protocol: ProtocolStrongBA, n: 17, f: 1, fault: FaultCrashLeader},
		{protocol: ProtocolDolevStrong, n: 7, f: 2, fault: FaultSpam, shuffle: 9},
		{protocol: ProtocolBBViaBA, n: 9, f: 1, fault: FaultStagger},
	}
	if testing.Short() {
		cells = cells[:4]
	}
	run := func(c cell) (csv, trace []byte) {
		t.Helper()
		var tr bytes.Buffer
		spec := Spec{
			Protocol:    c.protocol,
			N:           c.n,
			F:           c.f,
			Fault:       c.fault,
			ShuffleSeed: c.shuffle,
			Ed25519:     c.ed25519,
			OnSend:      sim.TraceTo(&tr),
		}
		o, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []Outcome{*o}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), tr.Bytes()
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s-n%d-f%d-%s-shuffle%d", c.protocol, c.n, c.f, c.fault, c.shuffle)
		t.Run(name, func(t *testing.T) {
			testenv.Procs(t, 1)
			wantCSV, wantTrace := run(c)
			for _, w := range []int{2, 8} {
				testenv.Procs(t, w)
				gotCSV, gotTrace := run(c)
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
