package metrics

import (
	"sync"
	"testing"
)

func TestRecorderTotals(t *testing.T) {
	r := NewRecorder()
	r.RecordSend(SendEvent{Words: 2, Bytes: 100, Sigs: 1, Layer: "bb", Honest: true})
	r.RecordSend(SendEvent{Words: 1, Layer: "bb/wba", Honest: true})
	r.RecordSend(SendEvent{Words: 5, Layer: "bb", Honest: false})

	rep := r.Snapshot()
	if rep.Honest.Messages != 2 || rep.Honest.Words != 3 || rep.Honest.Bytes != 100 || rep.Honest.Signatures != 1 {
		t.Errorf("honest stats wrong: %+v", rep.Honest)
	}
	if rep.Byzantine.Messages != 1 || rep.Byzantine.Words != 5 {
		t.Errorf("byzantine stats wrong: %+v", rep.Byzantine)
	}
	if rep.Words() != 3 {
		t.Errorf("Words() = %d", rep.Words())
	}
}

func TestEveryMessageCostsAtLeastOneWord(t *testing.T) {
	r := NewRecorder()
	r.RecordSend(SendEvent{Words: 0, Honest: true})
	r.RecordSend(SendEvent{Words: -7, Honest: true})
	if got := r.Snapshot().Honest.Words; got != 2 {
		t.Errorf("zero/negative word messages should cost 1 each, total %d", got)
	}
}

func TestLayerBreakdown(t *testing.T) {
	r := NewRecorder()
	r.RecordSend(SendEvent{Words: 1, Layer: "bb", Honest: true})
	r.RecordSend(SendEvent{Words: 2, Layer: "bb/wba", Honest: true})
	r.RecordSend(SendEvent{Words: 3, Layer: "bb/wba", Honest: true})
	r.RecordSend(SendEvent{Words: 9, Layer: "", Honest: true})
	// Byzantine sends never pollute the layer table.
	r.RecordSend(SendEvent{Words: 99, Layer: "bb", Honest: false})

	rep := r.Snapshot()
	if got := rep.ByLayer["bb"].Words; got != 1 {
		t.Errorf("bb words = %d", got)
	}
	if got := rep.ByLayer["bb/wba"].Words; got != 5 {
		t.Errorf("bb/wba words = %d", got)
	}
	if got := rep.ByLayer["(root)"].Words; got != 9 {
		t.Errorf("(root) words = %d", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRecorder()
	r.RecordSend(SendEvent{Words: 1, Layer: "x", Honest: true})
	rep := r.Snapshot()
	r.RecordSend(SendEvent{Words: 1, Layer: "x", Honest: true})
	if rep.ByLayer["x"].Words != 1 {
		t.Error("snapshot shares state with recorder")
	}
}

func TestAuxCountersAndTicks(t *testing.T) {
	r := NewRecorder()
	r.SetTicks(42)
	rep := r.Snapshot()
	if rep.Ticks != 42 {
		t.Errorf("aux counters: %+v", rep)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.RecordSend(SendEvent{Words: 1, Layer: "l", Honest: true})
			}
		}(g)
	}
	wg.Wait()
	if got := r.Snapshot().Honest.Messages; got != 8000 {
		t.Errorf("lost events under concurrency: %d", got)
	}
}

// TestNetCounters exercises the transport data-plane counters: coalesced
// flushes aggregate frames and bytes, drops count backpressure sheds, and
// both survive concurrent recording (outbox writers run off the tick loop).
func TestNetCounters(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.RecordNetFlush(3, 120)
				r.RecordNetDrop()
			}
		}()
	}
	wg.Wait()
	rep := r.Snapshot()
	if rep.NetFlushes != 400 || rep.NetFlushedFrames != 1200 || rep.NetFlushedBytes != 48000 {
		t.Errorf("flush counters: flushes=%d frames=%d bytes=%d",
			rep.NetFlushes, rep.NetFlushedFrames, rep.NetFlushedBytes)
	}
	if rep.NetDrops != 400 {
		t.Errorf("drops = %d, want 400", rep.NetDrops)
	}
}
