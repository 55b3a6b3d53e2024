package bb

import (
	"bytes"
	"testing"

	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// TestSignBasesAreExactSizeAndUnchanged pins the sign-base wire format
// against the growing-writer encoding it replaced (a changed base would
// silently invalidate every signature a peer or a recorded attack holds)
// and the size arithmetic: one allocation, no slack.
func TestSignBasesAreExactSizeAndUnchanged(t *testing.T) {
	for _, tag := range []string{"", "t", "eng/s12/b7"} {
		for _, v := range []types.Value{nil, types.Value("x"), bytes.Repeat([]byte("batch "), 100)} {
			w := wire.NewWriter()
			w.PutString("bb/sender")
			w.PutString(tag)
			w.PutProcess(5)
			w.PutValue(v)
			if got := senderBase(tag, 5, v); !bytes.Equal(got, w.Bytes()) || cap(got) != len(got) {
				t.Errorf("senderBase(%q, 5, %d B): len=%d cap=%d, reference len=%d, equal=%t",
					tag, len(v), len(got), cap(got), w.Len(), bytes.Equal(got, w.Bytes()))
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
	if a := testing.AllocsPerRun(100, func() { senderBase("eng/s0/b1", 1, types.Value("value")) }); a > 1 {
		t.Errorf("senderBase allocates %.0f, want 1", a)
	}
}

// TestValidatorBaseMemoIsTransparent: whatever order values and phases
// arrive in, the Validator's remembered base is the freshly encoded one,
// and a repeat costs no encoding.
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
