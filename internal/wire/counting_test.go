// CountingWriter / Size coverage: the size-only path must agree
// byte-for-byte with the materializing encoder on every registered
// payload type, and must not allocate — the simulator calls Size for
// every send it charges. Lives in package wire_test to reuse the captured
// payload corpus.
package wire_test

import (
	"errors"
	"testing"

	"adaptiveba/internal/baseline/floodset"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// corpusPayloads decodes the captured corpus back into one payload
// instance per registered type.
func corpusPayloads(t testing.TB) (*wire.Registry, map[string]proto.Payload) {
	t.Helper()
	frames, err := captureCorpus()
	if err != nil {
		t.Fatal(err)
	}
	reg := protocols.Registry()
	payloads := make(map[string]proto.Payload, len(frames))
	for typ, frame := range frames {
		p, err := reg.DecodePayload(frame)
		if err != nil {
			t.Fatalf("decode %q: %v", typ, err)
		}
		payloads[typ] = p
	}
	return reg, payloads
}

func TestSizeOfMatchesEncodedLength(t *testing.T) {
	_, payloads := corpusPayloads(t)
	for typ, p := range payloads {
		buf, err := wire.EncodePayload(p)
		if err != nil {
			t.Fatalf("encode %q: %v", typ, err)
		}
		if n := wire.Size(p); n != len(buf) {
			t.Errorf("%q: Size=%d, encoded length=%d", typ, n, len(buf))
		}
	}
}

// TestSizeOfUnknownType: a payload the wire has no frame for (floodset's,
// which is not a Body) weighs 0, and encoding it fails with ErrNoBody.
func TestSizeOfUnknownType(t *testing.T) {
	flood := proto.Payload(floodset.Flood{Values: []types.Value{types.One}})
	if n := wire.Size(flood); n != 0 {
		t.Errorf("%q: Size = %d, want 0", flood.Type(), n)
	}
	if _, err := wire.EncodePayload(flood); !errors.Is(err, wire.ErrNoBody) {
		t.Errorf("%q: EncodePayload: %v, want ErrNoBody", flood.Type(), err)
	}
	if err := wire.AppendPayload(wire.NewWriter(), flood); !errors.Is(err, wire.ErrNoBody) {
		t.Errorf("%q: AppendPayload: %v, want ErrNoBody", flood.Type(), err)
	}
}

// TestSizeOfZeroAllocs guards the whole point of the counting writer: a
// size query allocates nothing, for every registered payload type.
func TestSizeOfZeroAllocs(t *testing.T) {
	_, payloads := corpusPayloads(t)
	for typ, p := range payloads {
		if allocs := testing.AllocsPerRun(100, func() { wire.Size(p) }); allocs != 0 {
			t.Errorf("%q: Size allocates %.1f per call, want 0", typ, allocs)
		}
	}
}

// TestCountingWriterMatchesWriter drives both writers through every Put
// primitive and checks the count tracks the materialized length.
func TestCountingWriterMatchesWriter(t *testing.T) {
	var drive = func(w *wire.Writer) {
		w.PutUint64(42)
		w.PutInt(-7)
		w.PutByte(0xAB)
		w.PutBool(true)
		w.PutBool(false)
		w.PutBytes([]byte("hello"))
		w.PutBytes(nil)
		w.PutString("payload/type")
		w.PutString("")
		w.PutValue([]byte{1, 2, 3})
		w.PutSig([]byte{9, 9})
		w.PutProcess(3)
	}
	real := wire.NewWriter()
	drive(real)
	cw := wire.NewCountingWriter()
	drive(&cw.Writer)
	if cw.Size() != real.Len() {
		t.Fatalf("counting writer: size=%d, materialized=%d", cw.Size(), real.Len())
	}
	if cw.Len() != cw.Size() {
		t.Fatalf("Len()=%d disagrees with Size()=%d", cw.Len(), cw.Size())
	}
	if cw.Bytes() != nil {
		t.Fatal("counting writer materialized a buffer")
	}
	cw.Reset()
	if cw.Size() != 0 {
		t.Fatalf("Reset left size %d", cw.Size())
	}
}

func BenchmarkSize(b *testing.B) {
	_, payloads := corpusPayloads(b)
	for typ, p := range payloads {
		b.Run(typ, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				wire.Size(p)
			}
		})
	}
}

func BenchmarkEncodePayload(b *testing.B) {
	_, payloads := corpusPayloads(b)
	for typ, p := range payloads {
		b.Run(typ, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := wire.EncodePayload(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
