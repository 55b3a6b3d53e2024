package proto

import (
	"bytes"
	"fmt"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/types"
)

// quorumCert has processes 0..Quorum-1 sign msg and combines their
// shares into a quorum certificate under c.
func quorumCert(t *testing.T, c *Crypto, msg []byte) (threshold.Share, *threshold.Cert) {
	t.Helper()
	th := c.Threshold(c.Params.Quorum())
	shares := make([]threshold.Share, th.K())
	for i := range shares {
		sh, err := th.SignShare(types.ProcessID(i), msg)
		if err != nil {
			t.Fatal(err)
		}
		shares[i] = sh
	}
	cert, err := th.Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	return shares[0], cert
}

func mustSetup(t *testing.T, params types.Params, keys Keys, mode threshold.Mode) *Crypto {
	t.Helper()
	c, err := Setup(params, keys, mode)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDerivedKeysArePinned: for each label pair the program derives its
// keys from — harness, engine, transport.Setup and the two ablation
// experiments — Setup(Derived(ring, dealer)) signs and certifies byte
// for byte what the ring and dealer built by hand from the same labels
// do. This is what keeps goldens, traces and reports unchanged.
func TestDerivedKeysArePinned(t *testing.T) {
	params, _ := types.NewParams(9)
	msg := []byte("pinned")
	for _, labels := range [][2]string{
		{"harness-7", "harness-dealer"},
		{"engine-7", "engine-dealer"},
		{"cluster", "cluster-dealer"},
		{"ablate-quorum", "d"},
		{"ablate", "d"},
	} {
		ring, err := sig.NewHMACRing(params.N, []byte(labels[0]))
		if err != nil {
			t.Fatal(err)
		}
		want := NewCrypto(params, ring, threshold.ModeCompact, []byte(labels[1]))
		got := mustSetup(t, params, Derived(labels[0], labels[1]), threshold.ModeCompact)

		wantShare, wantCert := quorumCert(t, want, msg)
		gotShare, gotCert := quorumCert(t, got, msg)
		if !bytes.Equal(gotShare.Sig, wantShare.Sig) {
			t.Errorf("%q: share signature %x, want %x", labels, gotShare.Sig, wantShare.Sig)
		}
		if len(wantCert.Tag) == 0 || !bytes.Equal(gotCert.Tag, wantCert.Tag) {
			t.Errorf("%q: certificate tag %x, want %x", labels, gotCert.Tag, wantCert.Tag)
		}
	}
}

// TestFreshKeysDoNotVerifyEachOther: two Generated sources differ, and a
// certificate minted under one Generated or Ed25519 setup is rejected by
// another setup from the same kind of source — in both encodings, so
// neither the ring nor the dealer is shared.
func TestFreshKeysDoNotVerifyEachOther(t *testing.T) {
	params, _ := types.NewParams(7)
	if Generated() == Generated() {
		t.Fatal("two Generated sources are equal")
	}
	msg := []byte("fresh")
	for _, source := range []func() Keys{Generated, Ed25519} {
		for _, mode := range []threshold.Mode{threshold.ModeAggregate, threshold.ModeCompact} {
			a := mustSetup(t, params, source(), mode)
			b := mustSetup(t, params, source(), mode)
			name := fmt.Sprintf("%s/%v", a.Scheme.Name(), mode)
			_, cert := quorumCert(t, a, msg)
			q := params.Quorum()
			if !a.Threshold(q).Verify(msg, cert) {
				t.Fatalf("%s: certificate rejected by the setup that minted it", name)
			}
			if b.Threshold(q).Verify(msg, cert) {
				t.Errorf("%s: certificate verifies under another setup", name)
			}
		}
	}
}
