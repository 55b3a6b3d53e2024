package wba

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// TestSignBasesAreExactSizeAndUnchanged pins the sign-base wire format
// against a growing-writer reference encoding and the size arithmetic:
// one allocation, no slack, and vote and decide bases that commit to
// SHA-256(v), so their length does not grow with |v|.
func TestSignBasesAreExactSizeAndUnchanged(t *testing.T) {
	for _, tag := range []string{"", "t", "eng/s12/b7/wba"} {
		for domain, base := range map[string]func(string, int, types.Value) []byte{
			"wba/vote": voteBase, "wba/decide": decideBase,
		} {
			size := -1
			for _, v := range []types.Value{nil, types.Value("x"), bytes.Repeat([]byte("envelope "), 80)} {
				d := sha256.Sum256(v)
				w := wire.NewWriter()
				w.PutString(domain)
				w.PutString(tag)
				w.PutInt(4)
				w.PutBytes(d[:])
				got := base(tag, 4, v)
				if !bytes.Equal(got, w.Bytes()) || cap(got) != len(got) {
					t.Errorf("%s base (%q, 4, %d B): len=%d cap=%d, reference len=%d, equal=%t",
						domain, tag, len(v), len(got), cap(got), w.Len(), bytes.Equal(got, w.Bytes()))
				}
				if size < 0 {
					size = len(got)
				} else if len(got) != size {
					t.Errorf("%s base (%q, 4, %d B) is %d bytes, %d for an empty value", domain, tag, len(v), len(got), size)
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
	v := bytes.Repeat([]byte("envelope "), 80)
	if a := testing.AllocsPerRun(100, func() { voteBase("eng/s0/b1/wba", 1, v) }); a > 1 {
		t.Errorf("voteBase allocates %.0f, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { decideBase("eng/s0/b1/wba", 1, v) }); a > 1 {
		t.Errorf("decideBase allocates %.0f, want 1", a)
	}
}

// TestSignBasesBindTheValue: flipping any single byte of v changes the
// vote and decide bases, and a vote or decide share made over v does not
// verify — on the machine's own memoised path — for such a v′, nor for v
// under the other domain.
func TestSignBasesBindTheValue(t *testing.T) {
	crypto, params := setup(t, 5)
	m := NewMachine(Config{Params: params, Crypto: crypto, ID: 0, Input: types.Value("x"), Predicate: valid.NonBottom(), Tag: "t"})
	v := types.Value("an envelope: kind, the batch, the sender's signature")
	sign := func(base []byte) threshold.Share {
		sh, err := m.quorum.SignShare(2, base)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	vote, decide := sign(voteBase("t", 1, v)), sign(decideBase("t", 1, v))
	if !m.quorum.VerifyShare(m.voteBase(1, v), vote) || !m.quorum.VerifyShare(m.decideBase(1, v), decide) {
		t.Fatal("honest shares do not verify")
	}
	if m.quorum.VerifyShare(m.decideBase(1, v), vote) || m.quorum.VerifyShare(m.voteBase(1, v), decide) {
		t.Error("a share verifies across the vote/decide domains")
	}
	for i := range v {
		w := v.Clone()
		w[i] ^= 0x01
		if bytes.Equal(voteBase("t", 1, w), voteBase("t", 1, v)) || bytes.Equal(decideBase("t", 1, w), decideBase("t", 1, v)) {
			t.Errorf("flipping byte %d leaves a base unchanged", i)
		}
		if m.quorum.VerifyShare(m.voteBase(1, w), vote) || m.quorum.VerifyShare(m.decideBase(1, w), decide) {
			t.Errorf("a share over v verifies for a value with byte %d flipped", i)
		}
	}
}

// TestMachineBaseMemoIsTransparent: whatever order (phase, value) pairs
// arrive in — a Byzantine leader can interleave them freely, and vote and
// decide bases share the machine's one digest — the machine's remembered
// base is the freshly encoded one, vote and decide bases never answer for
// each other, and a repeat hashes and encodes nothing.
func TestMachineBaseMemoIsTransparent(t *testing.T) {
	crypto, params := setup(t, 5)
	m := NewMachine(Config{Params: params, Crypto: crypto, ID: 0, Input: types.Value("x"), Predicate: valid.NonBottom(), Tag: "t"})
	type pair struct {
		phase int
		v     types.Value
	}
	calls := []struct{ vote, decide pair }{
		{pair{1, types.Value("x")}, pair{1, types.Value("x")}},
		{pair{1, types.Value("x")}, pair{1, types.Value("x")}},
		{pair{2, types.Value("x")}, pair{2, types.Value("y")}},
		{pair{2, types.Value("y")}, pair{1, types.Value("x")}},
		{pair{1, types.Value("x")}, pair{2, types.Value("y")}},
		{pair{3, types.Value("y")}, pair{3, types.Value("x")}},
		{pair{1, nil}, pair{1, types.Value{}}},
		{pair{1, types.Value{}}, pair{4, nil}},
		{pair{1, types.Value("xx")}, pair{1, types.Value("x")}},
	}
	for i, c := range calls {
		if got, want := m.voteBase(c.vote.phase, c.vote.v), voteBase("t", c.vote.phase, c.vote.v); !bytes.Equal(got, want) {
			t.Errorf("call %d: remembered vote base differs from a fresh encoding", i)
		}
		if got, want := m.decideBase(c.decide.phase, c.decide.v), decideBase("t", c.decide.phase, c.decide.v); !bytes.Equal(got, want) {
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
