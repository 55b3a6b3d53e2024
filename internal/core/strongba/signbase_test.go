package strongba

import (
	"bytes"
	"testing"

	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// TestSignBasesAreExactSizeAndUnchanged pins the sign-base wire format
// against the growing-writer encoding it replaced and the size
// arithmetic: one allocation, no slack.
func TestSignBasesAreExactSizeAndUnchanged(t *testing.T) {
	for _, tag := range []string{"", "t", "eng/s12/v7"} {
		for _, v := range []types.Value{types.Zero, types.One, nil, types.Value("not binary")} {
			for domain, base := range map[string]func(string, types.Value) []byte{
				"sba/input": inputBase, "sba/decide": decideBase,
			} {
				w := wire.NewWriter()
				w.PutString(domain)
				w.PutString(tag)
				w.PutValue(v)
				if got := base(tag, v); !bytes.Equal(got, w.Bytes()) || cap(got) != len(got) {
					t.Errorf("%s base (%q, %v): len=%d cap=%d, reference len=%d, equal=%t",
						domain, tag, v, len(got), cap(got), w.Len(), bytes.Equal(got, w.Bytes()))
				}
			}
		}
	}
}

// TestMachineBaseMemoIsTransparent: the two remembered bases per kind are
// the freshly encoded ones in any order, input and decide bases never
// answer for each other, and a repeat costs no encoding.
func TestMachineBaseMemoIsTransparent(t *testing.T) {
	crypto, params := setup(t, 5)
	m, err := NewMachine(Config{Params: params, Crypto: crypto, ID: 0, Input: types.One, Tag: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []types.Value{types.One, types.Zero, types.One, types.One, types.Zero, nil, types.Value("junk")} {
		if got, want := m.inputBase(v), inputBase("t", v); !bytes.Equal(got, want) {
			t.Errorf("call %d (%v): remembered input base differs from a fresh encoding", i, v)
		}
		if got, want := m.decideBase(v), decideBase("t", v); !bytes.Equal(got, want) {
			t.Errorf("call %d (%v): remembered decide base differs from a fresh encoding", i, v)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		m.inputBase(types.Zero)
		m.inputBase(types.One)
		m.decideBase(types.One)
	}); a > 0 {
		t.Errorf("repeated binary bases allocate %.0f, want 0", a)
	}
}
