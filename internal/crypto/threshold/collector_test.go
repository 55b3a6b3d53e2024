package threshold

import (
	"bytes"
	"errors"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/types"
)

// countingScheme is newScheme over a base that counts its verifications.
func countingScheme(t *testing.T, n, k int, mode Mode) (*Scheme, *sig.Counting) {
	t.Helper()
	ring, err := sig.NewHMACRing(n, []byte("threshold-test"))
	if err != nil {
		t.Fatal(err)
	}
	base := sig.NewCounting(ring)
	s, err := New(base, k, mode, []byte("dealer"))
	if err != nil {
		t.Fatal(err)
	}
	return s, base
}

// TestCollectorRecordsOnlyValidShares: Add records a share only if it is
// valid on the collector's own message and comes from a signer of the
// ring; nothing else reaches the signer set a certificate is minted from.
func TestCollectorRecordsOnlyValidShares(t *testing.T) {
	msg, other := []byte("vote v in phase 1"), []byte("vote v in phase 2")
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			s := newScheme(t, 5, 3, mode)
			c := s.NewCollector(msg)
			rejected := map[string]Share{
				"forged":          {Signer: 0, Sig: sig.Signature("not a real signature")},
				"transplanted":    {Signer: 1, Sig: mustShare(t, s, 0, msg).Sig},
				"other message":   mustShare(t, s, 2, other),
				"signer below 0":  {Signer: -1, Sig: mustShare(t, s, 0, msg).Sig},
				"signer beyond n": {Signer: 5, Sig: mustShare(t, s, 4, msg).Sig},
				"no signature":    {Signer: 3},
			}
			for name, sh := range rejected {
				if c.Add(sh) {
					t.Errorf("%s share recorded", name)
				}
			}
			if c.Count() != 0 {
				t.Fatalf("Count = %d after only invalid shares", c.Count())
			}
			// The rejected signers may still contribute valid shares.
			for _, id := range []types.ProcessID{0, 1, 2} {
				if !c.Add(mustShare(t, s, id, msg)) {
					t.Errorf("valid share of %v rejected", id)
				}
			}
			cert, err := c.Cert()
			if err != nil {
				t.Fatal(err)
			}
			if !s.Verify(msg, cert) || s.Verify(other, cert) {
				t.Error("minted certificate does not prove exactly its own message")
			}
			if got := cert.Signers.Members(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
				t.Errorf("signers %v, want p0..p2", got)
			}
		})
	}
}

// TestCollectorCountsASignerOnce: a repeated signer is recorded once and
// checked once, whether its repeat is valid or not.
func TestCollectorCountsASignerOnce(t *testing.T) {
	msg := []byte("m")
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			s, base := countingScheme(t, 5, 3, mode)
			c := s.NewCollector(msg)
			sh := mustShare(t, s, 1, msg)
			if !c.Add(sh) {
				t.Fatal("first share rejected")
			}
			if c.Add(sh) || c.Add(Share{Signer: 1, Sig: sig.Signature("junk")}) {
				t.Error("repeated signer recorded again")
			}
			if c.Count() != 1 {
				t.Errorf("Count = %d, want 1", c.Count())
			}
			if v := base.Verifies(); v != 1 {
				t.Errorf("%d verifications for one signer, want 1", v)
			}
			if _, err := c.Cert(); !errors.Is(err, ErrTooFewShares) {
				t.Errorf("one signer repeated minted a (3, 5) certificate: %v", err)
			}
		})
	}
}

// TestCollectorCertBelowK: no certificate below the threshold, and one as
// soon as the K-th signer is in.
func TestCollectorCertBelowK(t *testing.T) {
	msg := []byte("m")
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			s := newScheme(t, 7, 4, mode)
			c := s.NewCollector(msg)
			if _, err := c.Cert(); !errors.Is(err, ErrTooFewShares) {
				t.Errorf("empty collector: err = %v, want ErrTooFewShares", err)
			}
			for _, id := range []types.ProcessID{6, 3, 0} {
				c.Add(mustShare(t, s, id, msg))
				if cert, err := c.Cert(); !errors.Is(err, ErrTooFewShares) || cert != nil {
					t.Errorf("%d signers: cert %v, err %v, want ErrTooFewShares", c.Count(), cert, err)
				}
			}
			c.Add(mustShare(t, s, 5, msg))
			if _, err := c.Cert(); err != nil {
				t.Errorf("4 signers: %v", err)
			}
		})
	}
}

// TestCollectorMintsWhatCombineMints: Cert verifies nothing, and mints the
// certificate Combine mints from the same shares, byte for byte, with the
// component signatures in ascending signer order whatever the arrival
// order. A certificate is a snapshot: later shares do not change it.
func TestCollectorMintsWhatCombineMints(t *testing.T) {
	msg := []byte("decide v in phase 3")
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			s, base := countingScheme(t, 7, 4, mode)
			shares := collectShares(t, s, msg, 5, 2, 6, 0, 3)
			c := s.NewCollector(msg)
			for _, sh := range shares {
				c.Add(sh)
			}
			before := base.Verifies()
			cert, err := c.Cert()
			if err != nil {
				t.Fatal(err)
			}
			if base.Verifies() != before {
				t.Errorf("Cert verified %d shares again", base.Verifies()-before)
			}
			want, err := s.Combine(msg, shares)
			if err != nil {
				t.Fatal(err)
			}
			if !cert.Signers.Equal(want.Signers) || !bytes.Equal(cert.Tag, want.Tag) || len(cert.Shares) != len(want.Shares) {
				t.Fatalf("collector minted %+v, Combine %+v", cert, want)
			}
			for i := range want.Shares {
				if !bytes.Equal(cert.Shares[i], want.Shares[i]) {
					t.Errorf("share %d differs from Combine's", i)
				}
			}
			c.Add(mustShare(t, s, 1, msg))
			if cert.Count() != 5 || !s.Verify(msg, cert) {
				t.Error("a later Add changed a minted certificate")
			}
			if later, err := c.Cert(); err != nil || later.Count() != 6 || !s.Verify(msg, later) {
				t.Errorf("Cert after a later Add: %v, err %v", later, err)
			}
		})
	}
}

// TestCombineStillChecksEveryShare: Combine, the way in for callers that
// did not check their shares (attack construction, the benchmark's layer
// probes), still refuses a bad share wherever it sits in the list.
func TestCombineStillChecksEveryShare(t *testing.T) {
	msg := []byte("m")
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			s := newScheme(t, 5, 3, mode)
			good := collectShares(t, s, msg, 0, 1, 2, 3)
			for i := range good {
				shares := append([]Share(nil), good...)
				shares[i].Sig = mustShare(t, s, shares[i].Signer, []byte("other")).Sig
				if _, err := s.Combine(msg, shares); !errors.Is(err, ErrBadShare) {
					t.Errorf("bad share at %d: err = %v, want ErrBadShare", i, err)
				}
			}
			if _, err := s.Combine(msg, append(good, Share{Signer: 9, Sig: good[0].Sig})); !errors.Is(err, ErrBadShare) {
				t.Errorf("out-of-range signer: err = %v, want ErrBadShare", err)
			}
		})
	}
}
