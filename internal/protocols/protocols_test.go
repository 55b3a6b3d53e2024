package protocols

import (
	"errors"
	"strings"
	"testing"

	"adaptiveba/internal/baseline/floodset"
	"adaptiveba/internal/core/strongba"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// TestTagsStable pins every kind's signing tag: a tag is part of every
// sign base, so a renamed one changes every signature a peer holds.
func TestTagsStable(t *testing.T) {
	var got []string
	for _, k := range Kinds() {
		got = append(got, k.Tag("h"))
	}
	want := "h/bb h/wba h/sba h/bbr h/acs h/fb h/ds h/echo h/fs h/cm"
	if strings.Join(got, " ") != want {
		t.Errorf("tags %q, want %q", strings.Join(got, " "), want)
	}
}

// TestValidateChecksEveryProcess: a bad input at any process fails
// Validate, and whatever passes it builds at every process.
func TestValidateChecksEveryProcess(t *testing.T) {
	params, err := types.NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(4, []byte("protocols"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: params, Crypto: proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")), Tag: "t"}
	bad := func(id types.ProcessID) types.Value {
		if id == 3 {
			return types.Value("x")
		}
		return types.One
	}
	if err := StrongBA.Validate(cfg, bad); !errors.Is(err, strongba.ErrNotBinary) {
		t.Errorf("strongba with a bad input at p3: %v, want ErrNotBinary", err)
	}
	if err := BBViaBA.Validate(cfg, bad); err != nil {
		t.Errorf("bb-via-ba reads only the sender's input, p3's is irrelevant: %v", err)
	}
	for _, k := range Kinds() {
		if err := k.Validate(cfg, func(types.ProcessID) types.Value { return types.One }); err != nil {
			t.Errorf("%s: %v", k, err)
			continue
		}
		for id := types.ProcessID(0); id < 4; id++ {
			if m, err := k.New(cfg, id, types.One); err != nil || m == nil {
				t.Errorf("%s p%d: machine %v, err %v", k, id, m, err)
			}
		}
		if k.MaxTicks(cfg) <= 0 {
			t.Errorf("%s: no tick bound", k)
		}
	}
	if _, err := Kind("nope").New(cfg, 0, nil); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown kind: %v", err)
	}
}

// TestSizeOfAllocatesNothing: the byte meter every run charges allocates
// nothing, for a payload with a codec (its exact frame size) and for one
// without (0 bytes, and no error built for the unknown type).
func TestSizeOfAllocatesNothing(t *testing.T) {
	vote := proto.Payload(wba.Vote{Phase: 1, V: types.Value("v"), Share: make(sig.Signature, 32)})
	frame, err := Registry().EncodePayload(vote)
	if err != nil {
		t.Fatal(err)
	}
	flood := proto.Payload(floodset.Flood{Values: []types.Value{types.One}})
	for _, c := range []struct {
		p    proto.Payload
		want int
	}{{vote, len(frame)}, {flood, 0}} {
		if got := SizeOf(c.p); got != c.want {
			t.Errorf("%s: SizeOf = %d, want %d", c.p.Type(), got, c.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { SizeOf(c.p) }); allocs != 0 {
			t.Errorf("%s: SizeOf allocates %.1f per call, want 0", c.p.Type(), allocs)
		}
	}
}
