package testenv

import (
	"encoding/binary"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"
)

// Frame kinds of the mesh's start barrier and data plane.
const (
	kindHello byte = 1
	kindReady byte = 2
	kindMsg   byte = 3
)

// writeFrame writes one [u32 len][kind][body] frame.
func writeFrame(t *testing.T, c net.Conn, kind byte, body []byte) {
	t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)+1))
	frame = append(append(frame, kind), body...)
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// sendThrough sends a hello, a ready and msgs numbered message frames
// over the link from → to of f, and returns what reached the far end:
// each frame's kind, and a message frame's number after it.
func sendThrough(t *testing.T, f *Faults, from, to, msgs int) []int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []int)
	go func() {
		var seen []int
		defer func() { got <- seen }()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			frame, err := readFrame(c)
			if err != nil {
				return
			}
			seen = append(seen, int(frame[4]))
			if frame[4] == kindMsg {
				seen = append(seen, int(binary.BigEndian.Uint32(frame[5:])))
			}
		}
	}()
	c, err := net.Dial("tcp", f.Link(t, from, to, ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	writeFrame(t, c, kindHello, []byte("hello"))
	writeFrame(t, c, kindReady, nil)
	for i := range msgs {
		writeFrame(t, c, kindMsg, binary.BigEndian.AppendUint32(nil, uint32(i)))
	}
	c.Close()
	return <-got
}

// TestLinkScheduleIsDeterministic: a link's verdicts are a pure function
// of the seed and the link. Two runs of one link drop the same message
// frames and keep the rest in order, another link draws another stream,
// the handshake frames pass untouched, and the tally counts what was
// dropped and delayed.
func TestLinkScheduleIsDeterministic(t *testing.T) {
	NoLeaks(t)
	const msgs = 200
	run := func(from, to int) ([]int, int64, int64) {
		f := &Faults{Seed: 99, Kinds: []byte{kindMsg}, Drop: 0.2, Delay: 0.3, MaxDelay: time.Millisecond}
		got := sendThrough(t, f, from, to, msgs)
		return got, f.Dropped.Load(), f.Delayed.Load()
	}
	a, drops, delays := run(1, 2)
	b, _, _ := run(1, 2)
	if !slices.Equal(a, b) {
		t.Fatalf("one link, two runs, two fates:\n%v\n%v", a, b)
	}
	if len(a) < 2 || a[0] != int(kindHello) || a[1] != int(kindReady) {
		t.Fatalf("the handshake did not pass first and untouched: %v", a[:min(len(a), 2)])
	}
	var kept []int
	for i := 2; i+1 < len(a); i += 2 {
		kept = append(kept, a[i+1])
	}
	if !slices.IsSorted(kept) {
		t.Errorf("delays reordered the link: %v", kept)
	}
	if int64(msgs-len(kept)) != drops || drops == 0 || delays == 0 {
		t.Errorf("%d of %d frames arrived, tally drops=%d delays=%d", len(kept), msgs, drops, delays)
	}
	if c, _, _ := run(2, 1); slices.Equal(a, c) {
		t.Error("links 1→2 and 2→1 drew the same verdicts")
	}
}

// TestLinkWindows pins the geometry of the tick windows. In a partition
// window every frame across the process-id parity cut drops and frames
// on one side pass; in a flap window every frame to or from the window's
// victim drops; outside the windows nothing drops (no rates are set).
func TestLinkWindows(t *testing.T) {
	const tick = 10 * time.Millisecond
	at := func(k int) time.Duration { return time.Duration(k)*tick + tick/2 }
	verdict := func(f *Faults, from, to int, when time.Duration) bool {
		drop, _ := f.fate(rand.New(rand.NewSource(1)), from, to, when)
		return drop
	}

	cut := &Faults{Seed: 1, Tick: tick, N: 6, PartitionEvery: 4}
	for to := 1; to < 6; to++ {
		if drop, want := verdict(cut, 0, to, at(4)), to%2 != 0; drop != want {
			t.Errorf("in-window frame 0→%d: drop=%v, want %v", to, drop, want)
		}
		if verdict(cut, 0, to, at(5)) {
			t.Errorf("out-of-window frame 0→%d dropped", to)
		}
	}

	flap := &Faults{Seed: 1, Tick: tick, N: 6, FlapEvery: 3}
	victim := rand.New(rand.NewSource(1 + 2)).Intn(6) // the victim of window 2, ticks [6, 7)
	for from := range 6 {
		for to := range 6 {
			if from == to {
				continue
			}
			if drop, want := verdict(flap, from, to, at(6)), from == victim || to == victim; drop != want {
				t.Errorf("flap window, frame %d→%d: drop=%v, want %v (victim %d)", from, to, drop, want, victim)
			}
			if verdict(flap, from, to, at(7)) {
				t.Errorf("frame %d→%d dropped outside the flap window", from, to)
			}
		}
	}
}
