package wba

import (
	"bytes"
	"testing"

	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// TestSignBasesAreExactSizeAndUnchanged pins the sign-base wire format
// against the growing-writer encoding it replaced and the size
// arithmetic: one allocation, no slack.
func TestSignBasesAreExactSizeAndUnchanged(t *testing.T) {
	for _, tag := range []string{"", "t", "eng/s12/b7/wba"} {
		for _, v := range []types.Value{nil, types.Value("x"), bytes.Repeat([]byte("envelope "), 80)} {
			for domain, base := range map[string]func(string, int, types.Value) []byte{
				"wba/vote": voteBase, "wba/decide": decideBase,
			} {
				w := wire.NewWriter()
				w.PutString(domain)
				w.PutString(tag)
				w.PutInt(4)
				w.PutValue(v)
				if got := base(tag, 4, v); !bytes.Equal(got, w.Bytes()) || cap(got) != len(got) {
					t.Errorf("%s base (%q, 4, %d B): len=%d cap=%d, reference len=%d, equal=%t",
						domain, tag, len(v), len(got), cap(got), w.Len(), bytes.Equal(got, w.Bytes()))
				}
			}
		}
		w := wire.NewWriter()
		w.PutString("wba/help_req")
		w.PutString(tag)
		if got := helpReqBase(tag); !bytes.Equal(got, w.Bytes()) || cap(got) != len(got) {
			t.Errorf("helpReqBase(%q): len=%d cap=%d, reference len=%d", tag, len(got), cap(got), w.Len())
		}
	}
	if a := testing.AllocsPerRun(100, func() { voteBase("eng/s0/b1/wba", 1, types.Value("value")) }); a > 1 {
		t.Errorf("voteBase allocates %.0f, want 1", a)
	}
}

// TestMachineBaseMemoIsTransparent: whatever order (phase, value) pairs
// arrive in — a Byzantine leader can interleave them freely — the
// machine's remembered base is the freshly encoded one, vote and decide
// bases never answer for each other, and the n shares of one pass encode
// once.
func TestMachineBaseMemoIsTransparent(t *testing.T) {
	crypto, params := setup(t, 5)
	m := NewMachine(Config{Params: params, Crypto: crypto, ID: 0, Input: types.Value("x"), Predicate: valid.NonBottom(), Tag: "t"})
	calls := []struct {
		phase int
		v     types.Value
	}{{1, types.Value("x")}, {1, types.Value("x")}, {2, types.Value("x")}, {2, types.Value("y")}, {1, types.Value("x")}, {1, nil}, {1, types.Value{}}}
	for i, c := range calls {
		if got, want := m.voteBase(c.phase, c.v), voteBase("t", c.phase, c.v); !bytes.Equal(got, want) {
			t.Errorf("call %d: remembered vote base differs from a fresh encoding", i)
		}
		if got, want := m.decideBase(c.phase, c.v), decideBase("t", c.phase, c.v); !bytes.Equal(got, want) {
			t.Errorf("call %d: remembered decide base differs from a fresh encoding", i)
		}
	}
	if !bytes.Equal(m.helpReqBase(), helpReqBase("t")) || !bytes.Equal(m.helpReqBase(), helpReqBase("t")) {
		t.Error("remembered help_req base differs from a fresh encoding")
	}
	v := types.Value("the phase's proposal")
	m.voteBase(3, v)
	m.decideBase(3, v)
	if a := testing.AllocsPerRun(100, func() {
		m.voteBase(3, v)
		m.decideBase(3, v)
		m.helpReqBase()
	}); a > 0 {
		t.Errorf("repeated bases allocate %.0f, want 0", a)
	}
}
