package wire

import (
	"bytes"
	"testing"

	"adaptiveba/internal/proto"
)

// TestWriterReset: a reset writer re-encodes from a clean slate while
// keeping its grown capacity.
func TestWriterReset(t *testing.T) {
	w := NewWriter()
	w.PutString("hello")
	w.PutInt(42)
	first := append([]byte(nil), w.Bytes()...)
	capBefore := cap(w.Bytes())

	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.PutString("hello")
	w.PutInt(42)
	if !bytes.Equal(w.Bytes(), first) {
		t.Fatalf("re-encoded bytes differ:\n%x\n%x", w.Bytes(), first)
	}
	if cap(w.Bytes()) < capBefore {
		t.Errorf("Reset shrank capacity: %d -> %d", capBefore, cap(w.Bytes()))
	}
}

// TestWriterPoolRoundTrip: pooled writers come back reset and produce
// identical encodings to fresh ones.
func TestWriterPoolRoundTrip(t *testing.T) {
	want := NewWriter()
	want.PutString("x")
	want.PutUint64(7)

	for i := 0; i < 100; i++ {
		w := GetWriter()
		if w.Len() != 0 {
			t.Fatalf("pooled writer not reset: Len=%d", w.Len())
		}
		w.PutString("x")
		w.PutUint64(7)
		if !bytes.Equal(w.Bytes(), want.Bytes()) {
			t.Fatalf("pooled encoding differs at iteration %d", i)
		}
		PutWriter(w)
	}
	PutWriter(nil) // nil-safe
}

// TestPutWriterRejectsCountingWriter: counting writers belong to the
// Size pool and must not leak into the materializing pool, where a
// later GetWriter user would silently encode nothing.
func TestPutWriterRejectsCountingWriter(t *testing.T) {
	cw := NewCountingWriter()
	PutWriter(&cw.Writer) // must be a no-op
	for i := 0; i < 10; i++ {
		w := GetWriter()
		w.PutByte(1)
		if len(w.Bytes()) != 1 {
			t.Fatal("counting writer leaked into the writer pool")
		}
		PutWriter(w)
	}
}

// TestAppendPayloadMatchesEncodePayload: the in-place framing must be
// byte-identical to the allocating path.
func TestAppendPayloadMatchesEncodePayload(t *testing.T) {
	p := fuzzPayload{A: -3, B: []byte("hello"), C: true}
	want, err := EncodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	w := GetWriter()
	defer PutWriter(w)
	w.PutString("prefix") // AppendPayload must append, not clobber
	prefixLen := w.Len()
	if err := AppendPayload(w, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes()[prefixLen:], want) {
		t.Fatalf("AppendPayload frame differs from EncodePayload")
	}
}

// TestAppendPayloadZeroAllocs: steady-state framing into a warm writer
// performs no allocations — the contract the transport's encode-once
// send path relies on.
func TestAppendPayloadZeroAllocs(t *testing.T) {
	// Pre-boxed: the transport's payloads arrive as interfaces already, so
	// the measurement must not charge the test's own boxing.
	var p proto.Payload = fuzzPayload{A: 9, B: bytes.Repeat([]byte("v"), 64), C: true}
	w := NewWriter()
	if err := AppendPayload(w, p); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		if err := AppendPayload(w, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("AppendPayload into warm writer allocates %.1f times", allocs)
	}
}
