package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	w := NewWriter()
	w.PutUint64(42)
	w.PutInt(-7)
	w.PutByte(0xAB)
	w.PutBool(true)
	w.PutBool(false)
	w.PutBytes([]byte("hello"))
	w.PutString("world")
	w.PutValue(types.Value("v"))
	w.PutValue(types.Bottom)
	w.PutSig(sig.Signature{1, 2, 3})
	w.PutProcess(9)

	r := NewReader(w.Bytes())
	if got := r.Uint64(); got != 42 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if got := r.Bytes(); string(got) != "hello" {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if got := r.Value(); !got.Equal(types.Value("v")) {
		t.Errorf("Value = %v", got)
	}
	if got := r.Value(); !got.IsBottom() {
		t.Errorf("bottom Value = %v", got)
	}
	if got := r.Sig(); string(got) != "\x01\x02\x03" {
		t.Errorf("Sig = %v", got)
	}
	if got := r.Process(); got != 9 {
		t.Errorf("Process = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestTruncation(t *testing.T) {
	w := NewWriter()
	w.PutBytes([]byte("payload"))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Bytes()
		if r.Err() == nil {
			t.Errorf("cut=%d: no error", cut)
		}
	}
}

func TestOversizePrefixRejected(t *testing.T) {
	w := NewWriter()
	w.PutUint64(uint64(MaxChunk) + 1)
	r := NewReader(w.Bytes())
	if r.Bytes() != nil || !errors.Is(r.Err(), ErrOversize) {
		t.Errorf("err = %v", r.Err())
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	w := NewWriter()
	w.PutInt(1)
	w.PutInt(2)
	r := NewReader(w.Bytes())
	r.Int()
	if err := r.Close(); !errors.Is(err, ErrTrailing) {
		t.Errorf("err = %v", err)
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	r.Uint64() // fails
	if r.Int() != 0 || r.Bool() || r.Bytes() != nil {
		t.Error("reads after error returned data")
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("err = %v", r.Err())
	}
}

func TestBitSetRoundTrip(t *testing.T) {
	b := types.NewBitSet(130)
	b.Add(0)
	b.Add(64)
	b.Add(129)
	w := NewWriter()
	w.PutBitSet(b)
	r := NewReader(w.Bytes())
	got := r.BitSet()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(b) {
		t.Errorf("got %v", got)
	}
}

func certScheme(t *testing.T, mode threshold.Mode) *threshold.Scheme {
	t.Helper()
	ring, err := sig.NewHMACRing(7, []byte("wire"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := threshold.New(ring, 3, mode, []byte("dealer"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCertRoundTrip(t *testing.T) {
	msg := []byte("m")
	for _, mode := range []threshold.Mode{threshold.ModeAggregate, threshold.ModeCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			s := certScheme(t, mode)
			var shares []threshold.Share
			for _, id := range []types.ProcessID{1, 3, 5} {
				sh, err := s.SignShare(id, msg)
				if err != nil {
					t.Fatal(err)
				}
				shares = append(shares, sh)
			}
			cert, err := s.Combine(msg, shares)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWriter()
			w.PutCert(cert)
			if n := SizeCert(cert); n != w.Len() {
				t.Errorf("SizeCert = %d, encoded %d bytes", n, w.Len())
			}
			r := NewReader(w.Bytes())
			got := r.Cert()
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if !s.Verify(msg, got) {
				t.Error("decoded cert does not verify")
			}
		})
	}
}

func TestNilCertRoundTrip(t *testing.T) {
	w := NewWriter()
	w.PutCert(nil)
	if n := SizeCert(nil); n != w.Len() {
		t.Errorf("SizeCert(nil) = %d, encoded %d bytes", n, w.Len())
	}
	r := NewReader(w.Bytes())
	if got := r.Cert(); got != nil {
		t.Errorf("got %+v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestValueQuickRoundTrip(t *testing.T) {
	f := func(vals [][]byte) bool {
		w := NewWriter()
		for _, v := range vals {
			w.PutValue(types.Value(v))
		}
		r := NewReader(w.Bytes())
		for _, v := range vals {
			got := r.Value()
			if len(v) == 0 {
				if !got.IsBottom() {
					return false
				}
			} else if !got.Equal(types.Value(v)) {
				return false
			}
		}
		return r.Close() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// testPayload is a trivial payload for registry tests.
type testPayload struct {
	N int
}

func (p testPayload) Type() string { return "test/pay" }
func (p testPayload) Words() int   { return 1 }

func testCodec() Codec {
	return Codec{
		Type: "test/pay",
		Encode: func(w *Writer, p proto.Payload) error {
			tp, ok := p.(testPayload)
			if !ok {
				return errors.New("wrong type")
			}
			w.PutInt(tp.N)
			return nil
		},
		Decode: func(r *Reader) (proto.Payload, error) {
			return testPayload{N: r.Int()}, r.Err()
		},
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(testCodec())
	b, err := reg.EncodePayload(testPayload{N: 17})
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.DecodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := p.(testPayload)
	if !ok || got.N != 17 {
		t.Errorf("got %#v", p)
	}
}

func TestRegistryErrors(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.EncodePayload(testPayload{}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("encode unknown: %v", err)
	}
	reg.MustRegister(testCodec())
	if err := reg.Register(testCodec()); !errors.Is(err, ErrDupType) {
		t.Errorf("dup: %v", err)
	}
	if err := reg.Register(Codec{Type: "x"}); err == nil {
		t.Error("incomplete codec accepted")
	}
	if _, err := reg.DecodePayload([]byte{0xff}); err == nil {
		t.Error("garbage frame accepted")
	}
	w := NewWriter()
	w.PutString("nope")
	if _, err := reg.DecodePayload(w.Bytes()); !errors.Is(err, ErrUnknownType) {
		t.Errorf("decode unknown: %v", err)
	}
	// Trailing bytes after a valid body must be rejected.
	b, _ := reg.EncodePayload(testPayload{N: 1})
	if _, err := reg.DecodePayload(append(b, 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestNewWriterSizeIsExact: an encoder that sums SizeInt/SizeBytes for
// its fields gets its encoding in one allocation with no slack, byte for
// byte what the growing writer produces.
func TestNewWriterSizeIsExact(t *testing.T) {
	encode := func(w *Writer) []byte {
		w.PutString("wba/vote")
		w.PutString("eng/s0/b1/wba")
		w.PutInt(3)
		w.PutProcess(7)
		w.PutValue(types.Value("a value"))
		w.PutSig(nil)
		return w.Bytes()
	}
	size := SizeBytes(len("wba/vote")) + SizeBytes(len("eng/s0/b1/wba")) + 2*SizeInt + SizeBytes(len("a value")) + SizeBytes(0)
	got := encode(NewWriterSize(size))
	if len(got) != size || cap(got) != size {
		t.Errorf("len=%d cap=%d, want %d/%d", len(got), cap(got), size, size)
	}
	if want := encode(NewWriter()); !bytes.Equal(got, want) {
		t.Errorf("sized writer encoded %x, growing writer %x", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { encode(NewWriterSize(size)) }); a > 1 {
		t.Errorf("exact-size encoding allocates %.0f, want 1", a)
	}
}

// TestDigestMemos: a Digester hit needs an equal value (nil and empty
// hash alike and compare alike) and a BaseMemo hit an equal (n, digest);
// anything else re-hashes or re-encodes and replaces the single entry,
// and what comes back always equals a fresh Sum / ValueBase.
func TestDigestMemos(t *testing.T) {
	var h Digester
	var m BaseMemo
	for i, c := range []struct {
		n   int
		v   []byte
		hit bool // the same encoding as the previous call
	}{
		{2, []byte("v"), false}, {2, []byte("v"), true},
		{3, []byte("v"), false}, {3, []byte("w"), false}, {3, nil, false}, {3, []byte{}, true}, // nil == empty
		{3, []byte("ww"), false}, {2, []byte("v"), false}, // the first entry is long gone
	} {
		prev := m.enc
		d := h.Sum(c.v)
		got := m.Get("dom", "tag", c.n, d)
		if d != Sum(c.v) || !bytes.Equal(got, ValueBase("dom", "tag", c.n, Sum(c.v))) {
			t.Errorf("call %d: (%d, %q) remembered digest or base differs from a fresh one", i, c.n, c.v)
		}
		if hit := prev != nil && &got[0] == &prev[0]; hit != c.hit {
			t.Errorf("call %d: (%d, %q) hit=%t, want %t", i, c.n, c.v, hit, c.hit)
		}
	}
	if a := testing.AllocsPerRun(100, func() { m.Get("dom", "tag", 2, h.Sum([]byte("v"))) }); a > 0 {
		t.Errorf("a repeat allocates %.0f, want 0", a)
	}

	// The digester keeps its own copy of v: a buffer changed after Sum and
	// passed again is a miss, not the digest of what it used to hold.
	buf := []byte("old")
	h.Sum(buf)
	copy(buf, "new")
	if h.Sum(buf) != Sum([]byte("new")) {
		t.Error("Sum after the caller's buffer changed returned the old value's digest")
	}
}
