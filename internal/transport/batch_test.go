package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// TestClusterMatchesSimulator pins the TCP runtime against the repo's
// ground truth for words: a loopback BB cluster must charge every node,
// layer by layer, exactly the messages and words the deterministic
// simulator charges the same five machines, and decide the same values.
// A send path that skips, duplicates or mis-meters one recipient shows
// up as a per-node count off by one.
func TestClusterMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("full TCP cluster run")
	}
	testenv.NoLeaks(t)
	const n = 5
	crypto := mustSetup(t, n)
	machines := protocolMachines(crypto, "bb")

	cluster, err := RunCluster(clusterCtx(t), ClusterOpts{
		Node:    Config{Params: crypto.Params, Crypto: crypto, TickInterval: 30 * time.Millisecond},
		Machine: machines,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if cluster.Drops != 0 {
		t.Errorf("cluster dropped %d frames on a healthy loopback mesh", cluster.Drops)
	}

	type cell struct {
		node  types.ProcessID
		layer string
	}
	want := make(map[cell]metrics.Stats)
	ref, err := sim.Run(sim.Config{
		Params: crypto.Params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m, err := machines(id)
			if err != nil {
				panic(err)
			}
			return m
		},
		// Self-deliveries are free on both runtimes.
		OnSend: func(_ types.Tick, m sim.Message, honest bool) {
			if !honest || m.From == m.To {
				return
			}
			layer := m.Session
			if layer == "" {
				layer = "(root)"
			}
			s := want[cell{m.From, layer}]
			s.Messages++
			s.Words += int64(m.Payload.Words())
			want[cell{m.From, layer}] = s
		},
	})
	if err != nil {
		t.Fatalf("simulator: %v", err)
	}
	if ref.TimedOut || !ref.AllDecided() {
		t.Fatalf("simulator reference did not finish: timed out %v, decisions %v", ref.TimedOut, ref.Decisions)
	}

	got := make(map[cell]metrics.Stats)
	for i, rep := range cluster.Reports {
		id := types.ProcessID(i)
		if !cluster.Decisions[i].Equal(ref.Decisions[id]) {
			t.Errorf("node %d decided %q over TCP, %q on the simulator", i, cluster.Decisions[i], ref.Decisions[id])
		}
		for layer, s := range rep.ByLayer {
			got[cell{id, layer}] = metrics.Stats{Messages: s.Messages, Words: s.Words}
		}
	}
	if len(want) == 0 {
		t.Fatal("simulator reference recorded no sends — test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-node per-layer {messages, words} differ:\n cluster   %v\n simulator %v", got, want)
	}
}

// TestSendBytesParity pins the metrics contract of the send path:
// RecordSend.Bytes must report the exact per-message wire size (frame
// header counted once), so byte tables stay comparable across PRs.
func TestSendBytesParity(t *testing.T) {
	// Header (5) + session string (8+len) + payload frame as a
	// length-prefixed chunk.
	sb, err := NewSendBench(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	payloadFrame, err := sb.node.cfg.Registry.EncodePayload(sb.outs[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	wantPerMsg := 5 + 8 + len(sb.outs[0].Session) + 8 + len(payloadFrame)
	for i := 0; i < 10; i++ {
		sb.Broadcast()
	}
	sb.Drain()
	rep := sb.Snapshot()
	if want := int64(10 * sb.MessagesPerBroadcast()); rep.Honest.Messages != want {
		t.Fatalf("%d messages, want %d", rep.Honest.Messages, want)
	}
	if got := rep.Honest.Bytes / rep.Honest.Messages; got != int64(wantPerMsg) {
		t.Errorf("bytes per message = %d, want %d", got, wantPerMsg)
	}
}

// TestSendAllocCeiling is the CI allocation guard for the pooled send
// path, mirroring the sim engine's TestSimTickAllocCeiling: once the
// scratch writers and outbox buffers are warm, a steady-state broadcast
// through Node.send must not allocate (a per-recipient allocation shows
// up as allocs >= n).
func TestSendAllocCeiling(t *testing.T) {
	sb, err := NewSendBench(9)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	for i := 0; i < 200; i++ { // warm buffers and pools
		sb.Broadcast()
	}
	sb.Drain()
	allocs := testing.AllocsPerRun(100, sb.Broadcast)
	sb.Drain()
	if allocs > 0.5 {
		t.Errorf("steady-state Broadcast allocates %.2f times per call, want 0", allocs)
	}
}

// TestFrameReaderBoundsAllocations: a hostile length prefix near
// MaxFrame with almost no body behind it must fail without committing
// memory for the claimed size — the reader grows in readChunk steps as
// bytes actually arrive.
func TestFrameReaderBoundsAllocations(t *testing.T) {
	hostile := make([]byte, 4)
	binary.BigEndian.PutUint32(hostile, MaxFrame) // in-range, so only streaming bounds protect us
	hostile = append(hostile, frameMsg, 'h', 'i')

	// MemStats is process-wide, and goroutines left winding down by the
	// package's cluster tests can allocate inside a measurement window.
	// That noise only ever adds, so the smallest of three windows is the
	// bound on what the reader itself allocated.
	allocated := func(fn func()) uint64 {
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew < least {
				least = grew
			}
		}
		return least
	}

	if grew := allocated(func() {
		var fr FrameReader
		if _, _, err := fr.Read(bytes.NewReader(hostile)); err == nil {
			t.Fatal("truncated hostile frame did not error")
		}
	}); grew > 2*readChunk {
		t.Errorf("truncated 7-byte frame allocated %d bytes (claimed %d)", grew, MaxFrame)
	}

	// Oversize and zero-length prefixes fail before any body allocation:
	// only the error value itself may allocate, never buffer memory.
	for _, size := range []uint32{0, MaxFrame + 1, 1<<32 - 1} {
		in := make([]byte, 4)
		binary.BigEndian.PutUint32(in, size)
		if grew := allocated(func() {
			for i := 0; i < 10; i++ {
				var r FrameReader
				if _, _, err := r.Read(bytes.NewReader(in)); err == nil {
					t.Fatalf("size %d accepted", size)
				}
			}
		}); grew > 4096 {
			t.Errorf("size %d: %d bytes allocated across 10 rejections", size, grew)
		}
	}
}

// TestFrameReaderReusesBuffer: steady-state frame reads off one
// connection allocate nothing once the buffer has grown.
func TestFrameReaderReusesBuffer(t *testing.T) {
	body := bytes.Repeat([]byte{0xab}, 1024)
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		for i := 0; i < 120; i++ {
			WriteFrame(c1, frameMsg, body)
		}
	}()
	var fr FrameReader
	if _, _, err := fr.Read(c2); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		kind, got, err := fr.Read(c2)
		if err != nil || kind != frameMsg || len(got) != len(body) {
			t.Fatalf("read: kind=%d len=%d err=%v", kind, len(got), err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state frame read allocates %.1f times", allocs)
	}
}

// TestOutboxBackpressureDropsInsteadOfBlocking: with a stalled peer the
// outbox must reject frames beyond its bound immediately — the enqueue
// side (the tick loop in production) never blocks, and once the write
// deadline kills the connection the error becomes sticky.
func TestOutboxBackpressureDropsInsteadOfBlocking(t *testing.T) {
	c1, c2 := net.Pipe() // nothing ever reads c2: the peer is stalled
	defer c2.Close()
	ob := newPeerOutbox(c1, 256, 50*time.Millisecond, nil)
	defer func() {
		ob.shutdown()
		c1.Close()
	}()

	body := make([]byte, 64)
	deadline := time.Now().Add(10 * time.Second)
	var sawBackpressure, sawDead bool
	for time.Now().Before(deadline) && !(sawBackpressure && sawDead) {
		start := time.Now()
		err := ob.enqueue(frameMsg, body)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("enqueue blocked for %v", d)
		}
		switch {
		case errors.Is(err, ErrBackpressure):
			sawBackpressure = true
		case err != nil:
			sawDead = true // write deadline fired; sticky connection error
		}
		time.Sleep(time.Millisecond)
	}
	if !sawBackpressure {
		t.Error("never saw ErrBackpressure from a full outbox")
	}
	if !sawDead {
		t.Error("write deadline never surfaced as a sticky enqueue error")
	}
}
