package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzReadFrame feeds arbitrary [len][kind][body] byte streams to the
// frame reader: it must never panic, must reject zero/oversize length
// prefixes and truncated bodies with an error, and must never allocate
// far beyond the bytes actually present in the input — a hostile prefix
// claiming MaxFrame backed by a 3-byte stream must not commit megabytes.
func FuzzReadFrame(f *testing.F) {
	valid := make([]byte, 4)
	binary.BigEndian.PutUint32(valid, 6)
	valid = append(valid, frameMsg, 'h', 'e', 'l', 'l', 'o')
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                       // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameMsg}) // oversize
	hostile := make([]byte, 4)
	binary.BigEndian.PutUint32(hostile, MaxFrame)
	f.Add(append(hostile, frameHello)) // in-range claim, truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var fr FrameReader
		kind, body, err := fr.Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)

		// Allocation bound: the reader may hold about twice the received
		// bytes (geometric growth) plus one readChunk step — never the
		// claimed frame size.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(data))+2*readChunk+4096 {
			t.Fatalf("read of %d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		// A successful read must be consistent with the input framing.
		if len(data) < 5 {
			t.Fatalf("accepted a %d-byte stream", len(data))
		}
		size := binary.BigEndian.Uint32(data[:4])
		if size == 0 || size > MaxFrame {
			t.Fatalf("accepted frame size %d", size)
		}
		if kind != data[4] {
			t.Fatalf("kind = %d, want %d", kind, data[4])
		}
		if uint32(len(body)) != size-1 {
			t.Fatalf("body length %d for size %d", len(body), size)
		}
		if !bytes.Equal(body, data[5:5+len(body)]) {
			t.Fatal("body does not match input")
		}
	})
}

// FuzzReadFrameRoundTrip: every frame WriteFrame emits must read back
// identically through the chunked reader.
func FuzzReadFrameRoundTrip(f *testing.F) {
	f.Add(byte(frameMsg), []byte("payload"))
	f.Add(byte(frameHello), []byte{})
	f.Add(byte(0xee), make([]byte, 3*readChunk+17)) // spans several chunks
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		if len(body)+1 > MaxFrame {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, kind, body); err != nil {
			t.Fatal(err)
		}
		var fr FrameReader
		gotKind, gotBody, err := fr.Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if gotKind != kind || !bytes.Equal(gotBody, body) {
			t.Fatalf("round trip mismatch: kind %d/%d, body %d/%d bytes", gotKind, kind, len(gotBody), len(body))
		}
	})
}
