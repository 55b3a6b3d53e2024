package bb

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// TestSignBasesAreExactSizeAndUnchanged pins the sign-base wire format
// against a growing-writer reference encoding (a changed base would
// silently invalidate every signature a peer or a recorded attack holds)
// and the size arithmetic: one allocation, no slack, and a sender base
// that commits to SHA-256(v), so its length does not grow with |v|.
func TestSignBasesAreExactSizeAndUnchanged(t *testing.T) {
	for _, tag := range []string{"", "t", "eng/s12/b7"} {
		size := -1
		for _, v := range []types.Value{nil, types.Value("x"), bytes.Repeat([]byte("batch "), 120)} {
			d := sha256.Sum256(v)
			w := wire.NewWriter()
			w.PutString("bb/sender")
			w.PutString(tag)
			w.PutProcess(5)
			w.PutBytes(d[:])
			got := senderBase(tag, 5, v)
			if !bytes.Equal(got, w.Bytes()) || cap(got) != len(got) {
				t.Errorf("senderBase(%q, 5, %d B): len=%d cap=%d, reference len=%d, equal=%t",
					tag, len(v), len(got), cap(got), w.Len(), bytes.Equal(got, w.Bytes()))
			}
			if size < 0 {
				size = len(got)
			} else if len(got) != size {
				t.Errorf("senderBase(%q, 5, %d B) is %d bytes, %d for an empty value", tag, len(v), len(got), size)
			}
		}
		w := wire.NewWriter()
		w.PutString("bb/idk")
		w.PutString(tag)
		w.PutInt(9)
		if got := idkBase(tag, 9); !bytes.Equal(got, w.Bytes()) || cap(got) != len(got) {
			t.Errorf("idkBase(%q, 9): len=%d cap=%d, reference len=%d", tag, len(got), cap(got), w.Len())
		}
	}
	v := bytes.Repeat([]byte("batch "), 120)
	if a := testing.AllocsPerRun(100, func() { senderBase("eng/s0/b1", 1, v) }); a > 1 {
		t.Errorf("senderBase allocates %.0f, want 1", a)
	}
}

// TestSenderBaseBindsTheValue: flipping any single byte of v changes the
// sender base, and a sender signature made over v does not verify for
// such a v′ — through the Validator, the path every process checks
// ⟨v⟩_sender on.
func TestSenderBaseBindsTheValue(t *testing.T) {
	crypto, params := setup(t, 5)
	v := types.Value("SET a2V5LTAwMDE i:dmFsdWUtb2YtYS1iYXRjaA")
	s, err := crypto.Signer(3).Sign(senderBase("t", 3, v))
	if err != nil {
		t.Fatal(err)
	}
	bv := NewValidator(crypto, "t", 3, params.N)
	if !bv.Validate(EncodeSenderValue(SenderValue{V: v, Sig: s})) {
		t.Fatal("the honest sender value does not validate")
	}
	base := senderBase("t", 3, v)
	for i := range v {
		w := v.Clone()
		w[i] ^= 0x01
		if bytes.Equal(senderBase("t", 3, w), base) {
			t.Errorf("flipping byte %d leaves the sender base unchanged", i)
		}
		if bv.Validate(EncodeSenderValue(SenderValue{V: w, Sig: s})) {
			t.Errorf("the signature over v validates a value with byte %d flipped", i)
		}
	}
}

// TestValidatorBaseMemoIsTransparent: whatever order values and phases
// arrive in, the Validator's remembered base is the freshly encoded one,
// and a repeat costs no hashing and no encoding.
func TestValidatorBaseMemoIsTransparent(t *testing.T) {
	crypto, params := setup(t, 5)
	bv := NewValidator(crypto, "t", 3, params.N)
	values := []types.Value{types.Value("x"), types.Value("x"), types.Value("y"), nil, types.Value("x"), {}, types.Value("xx")}
	for i, v := range values {
		if got, want := bv.senderBase(v), senderBase("t", 3, v); !bytes.Equal(got, want) {
			t.Errorf("call %d: remembered sender base differs from a fresh encoding", i)
		}
	}
	for i, phase := range []int{1, 1, 2, 1, 5, 5} {
		if got, want := bv.idkBase(phase), idkBase("t", phase); !bytes.Equal(got, want) {
			t.Errorf("call %d: remembered idk base differs from a fresh encoding", i)
		}
	}
	v := types.Value("repeated")
	bv.senderBase(v)
	bv.idkBase(4)
	if a := testing.AllocsPerRun(100, func() {
		bv.senderBase(v)
		bv.idkBase(4)
	}); a > 0 {
		t.Errorf("repeated bases allocate %.0f, want 0", a)
	}
}
