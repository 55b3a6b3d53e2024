package threshold

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/types"
)

func newScheme(t *testing.T, n, k int, mode Mode) *Scheme {
	t.Helper()
	base, err := sig.NewHMACRing(n, []byte("threshold-test"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(base, k, mode, []byte("dealer"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func collectShares(t *testing.T, s *Scheme, msg []byte, ids ...types.ProcessID) []Share {
	t.Helper()
	shares := make([]Share, 0, len(ids))
	for _, id := range ids {
		sh, err := s.SignShare(id, msg)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	return shares
}

func modes() []Mode { return []Mode{ModeAggregate, ModeCompact} }

func TestCombineAndVerify(t *testing.T) {
	msg := []byte("commit v in phase 3")
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			s := newScheme(t, 7, 4, mode)
			cert, err := s.Combine(msg, collectShares(t, s, msg, 0, 2, 4, 6))
			if err != nil {
				t.Fatal(err)
			}
			if !s.Verify(msg, cert) {
				t.Fatal("valid certificate rejected")
			}
			if cert.Count() != 4 {
				t.Errorf("Count = %d", cert.Count())
			}
			if cert.Words() != 1 {
				t.Errorf("certificate must cost one word, got %d", cert.Words())
			}
			if s.Verify([]byte("other message"), cert) {
				t.Error("certificate verified for wrong message")
			}
		})
	}
}

func TestCombineTooFewShares(t *testing.T) {
	for _, mode := range modes() {
		s := newScheme(t, 7, 4, mode)
		msg := []byte("m")
		_, err := s.Combine(msg, collectShares(t, s, msg, 0, 1, 2))
		if !errors.Is(err, ErrTooFewShares) {
			t.Errorf("%v: err = %v, want ErrTooFewShares", mode, err)
		}
	}
}

func TestCombineDeduplicatesSigners(t *testing.T) {
	for _, mode := range modes() {
		s := newScheme(t, 5, 3, mode)
		msg := []byte("m")
		// Same signer repeated must not count multiple times.
		shares := collectShares(t, s, msg, 0, 0, 0, 1)
		if _, err := s.Combine(msg, shares); !errors.Is(err, ErrTooFewShares) {
			t.Errorf("%v: duplicated signers formed a quorum: %v", mode, err)
		}
		shares = collectShares(t, s, msg, 0, 0, 1, 2)
		cert, err := s.Combine(msg, shares)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if cert.Count() != 3 {
			t.Errorf("%v: Count = %d", mode, cert.Count())
		}
	}
}

func TestCombineRejectsForgedShare(t *testing.T) {
	for _, mode := range modes() {
		s := newScheme(t, 5, 3, mode)
		msg := []byte("m")
		shares := collectShares(t, s, msg, 0, 1)
		forged := Share{Signer: 2, Sig: sig.Signature("not a real signature")}
		if _, err := s.Combine(msg, append(shares, forged)); !errors.Is(err, ErrBadShare) {
			t.Errorf("%v: forged share accepted: %v", mode, err)
		}
		// A share by one signer presented as another's must fail too.
		sh, _ := s.SignShare(0, msg)
		stolen := Share{Signer: 3, Sig: sh.Sig}
		if _, err := s.Combine(msg, append(shares, stolen)); !errors.Is(err, ErrBadShare) {
			t.Errorf("%v: transplanted share accepted: %v", mode, err)
		}
	}
}

func TestVerifyRejectsMutations(t *testing.T) {
	msg := []byte("m")
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			s := newScheme(t, 7, 3, mode)
			cert, err := s.Combine(msg, collectShares(t, s, msg, 0, 1, 2))
			if err != nil {
				t.Fatal(err)
			}
			if s.Verify(msg, nil) {
				t.Error("nil cert verified")
			}
			// Wrong K claimed.
			c := cert.Clone()
			c.K = 2
			if s.Verify(msg, c) {
				t.Error("cert with mismatched K verified")
			}
			// Claiming extra signers must break verification.
			c = cert.Clone()
			c.Signers.Add(6)
			if s.Verify(msg, c) {
				t.Error("cert with inflated signer set verified")
			}
			// Tag/share tampering.
			c = cert.Clone()
			if mode == ModeCompact {
				c.Tag[0] ^= 1
			} else {
				c.Shares[0][0] ^= 1
			}
			if s.Verify(msg, c) {
				t.Error("tampered cert verified")
			}
		})
	}
}

func TestVerifyAcrossSchemesRequiresMatchingThreshold(t *testing.T) {
	msg := []byte("m")
	base, _ := sig.NewHMACRing(7, []byte("threshold-test"))
	s3, _ := New(base, 3, ModeCompact, []byte("dealer"))
	s4, _ := New(base, 4, ModeCompact, []byte("dealer"))
	cert, err := s3.Combine(msg, []Share{
		mustShare(t, s3, 0, msg), mustShare(t, s3, 1, msg), mustShare(t, s3, 2, msg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s4.Verify(msg, cert) {
		t.Error("(3,n) certificate verified by (4,n) scheme")
	}
}

func mustShare(t *testing.T, s *Scheme, id types.ProcessID, msg []byte) Share {
	t.Helper()
	sh, err := s.SignShare(id, msg)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func TestNewValidation(t *testing.T) {
	base, _ := sig.NewHMACRing(5, []byte("x"))
	cases := []struct {
		k    int
		mode Mode
	}{
		{k: 0, mode: ModeAggregate},
		{k: 6, mode: ModeAggregate},
		{k: -1, mode: ModeCompact},
		{k: 3, mode: Mode(99)},
	}
	for _, c := range cases {
		if _, err := New(base, c.k, c.mode, nil); !errors.Is(err, ErrBadParams) {
			t.Errorf("New(k=%d, mode=%v): err = %v", c.k, c.mode, err)
		}
	}
	if _, err := New(nil, 3, ModeAggregate, nil); !errors.Is(err, ErrBadParams) {
		t.Errorf("nil base accepted: %v", err)
	}
}

func TestCertCloneIndependence(t *testing.T) {
	s := newScheme(t, 5, 3, ModeAggregate)
	msg := []byte("m")
	cert, err := s.Combine(msg, collectShares(t, s, msg, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	c := cert.Clone()
	c.Shares[0][0] ^= 0xff
	c.Signers.Add(4)
	if !s.Verify(msg, cert) {
		t.Error("mutating clone corrupted original")
	}
	var nilCert *Cert
	if nilCert.Clone() != nil || nilCert.Count() != 0 || nilCert.Bytes() != 0 {
		t.Error("nil cert helpers misbehave")
	}
}

func TestCompactCertIsConstantSize(t *testing.T) {
	s := newScheme(t, 31, 16, ModeCompact)
	msg := []byte("m")
	ids := make([]types.ProcessID, 16)
	for i := range ids {
		ids[i] = types.ProcessID(i)
	}
	c16, err := s.Combine(msg, collectShares(t, s, msg, ids...))
	if err != nil {
		t.Fatal(err)
	}
	agg := newScheme(t, 31, 16, ModeAggregate)
	a16, err := agg.Combine(msg, collectSharesAgg(t, agg, msg, ids...))
	if err != nil {
		t.Fatal(err)
	}
	if c16.Bytes() >= a16.Bytes() {
		t.Errorf("compact (%dB) not smaller than aggregate (%dB)", c16.Bytes(), a16.Bytes())
	}
}

func collectSharesAgg(t *testing.T, s *Scheme, msg []byte, ids ...types.ProcessID) []Share {
	t.Helper()
	return collectShares(t, s, msg, ids...)
}

// Property: any subset of >= k distinct signers combines into a cert that
// verifies, and never verifies under a different message.
func TestQuickCombine(t *testing.T) {
	s := newScheme(t, 9, 5, ModeCompact)
	f := func(pick uint16, msg []byte) bool {
		var ids []types.ProcessID
		for i := 0; i < 9; i++ {
			if pick&(1<<i) != 0 {
				ids = append(ids, types.ProcessID(i))
			}
		}
		shares := make([]Share, 0, len(ids))
		for _, id := range ids {
			sh, err := s.SignShare(id, msg)
			if err != nil {
				return false
			}
			shares = append(shares, sh)
		}
		cert, err := s.Combine(msg, shares)
		if len(ids) < 5 {
			return errors.Is(err, ErrTooFewShares)
		}
		if err != nil || !s.Verify(msg, cert) {
			return false
		}
		return !s.Verify(append(msg, 0x01), cert)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// referenceCompactTag recomputes the dealer's tag from first principles
// with fresh hmac.New states, sharing nothing with the scheme under test.
func referenceCompactTag(dealerSeed []byte, k int, msg []byte, signers *types.BitSet) []byte {
	kd := hmac.New(sha256.New, dealerSeed)
	kd.Write([]byte("adaptiveba/threshold-dealer"))
	mac := hmac.New(sha256.New, kd.Sum(nil))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k))
	mac.Write(b[:])
	binary.BigEndian.PutUint64(b[:], uint64(len(msg)))
	mac.Write(b[:])
	mac.Write(msg)
	for _, w := range signers.Words() {
		binary.BigEndian.PutUint64(b[:], w)
		mac.Write(b[:])
	}
	return mac.Sum(nil)[:16]
}

// TestCompactTagMatchesFreshHMAC is the dealer-side differential test for
// the reused keyed state: certificates minted and checked back to back on
// one scheme — accepted, rejected, over different messages and signer
// sets, n past one bitset word — always carry the fresh-hmac tag.
func TestCompactTagMatchesFreshHMAC(t *testing.T) {
	const n, k = 70, 36
	s := newScheme(t, n, k, ModeCompact)
	for round := 0; round < 20; round++ {
		msg := []byte(fmt.Sprintf("message-%d-%s", round, strings.Repeat("x", round*7)))
		ids := make([]types.ProcessID, 0, k+round%3)
		for i := 0; len(ids) < cap(ids); i++ {
			ids = append(ids, types.ProcessID((i*3+round)%n)) // 3 is coprime to n: distinct
		}
		cert, err := s.Combine(msg, collectShares(t, s, msg, ids...))
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceCompactTag([]byte("dealer"), k, msg, cert.Signers); !bytes.Equal(cert.Tag, want) {
			t.Fatalf("round %d: dealer tag %x, fresh hmac %x", round, cert.Tag, want)
		}
		if !s.Verify(msg, cert) {
			t.Fatalf("round %d: own certificate rejected", round)
		}
		if s.Verify(append(msg, '!'), cert) {
			t.Fatalf("round %d: certificate verified for a different message", round)
		}
		forged := cert.Clone()
		forged.Tag[round%len(forged.Tag)] ^= 4
		if s.Verify(msg, forged) {
			t.Fatalf("round %d: flipped tag accepted", round)
		}
		if !s.Verify(msg, cert) {
			t.Fatalf("round %d: certificate rejected after a rejected forgery", round)
		}
	}
}

// TestCompactTagIsExactCapacity pins that a compact certificate's tag is
// not a window onto the untruncated dealer MAC.
func TestCompactTagIsExactCapacity(t *testing.T) {
	s := newScheme(t, 5, 3, ModeCompact)
	msg := []byte("m")
	cert, err := s.Combine(msg, collectShares(t, s, msg, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Tag) != compactTagSize || cap(cert.Tag) != len(cert.Tag) {
		t.Fatalf("tag len=%d cap=%d, want %d/%d", len(cert.Tag), cap(cert.Tag), compactTagSize, compactTagSize)
	}
	for i, sh := range collectShares(t, s, msg, 0, 1, 2) {
		if cap(sh.Sig) != len(sh.Sig) {
			t.Errorf("share %d: len=%d cap=%d, want equal", i, len(sh.Sig), cap(sh.Sig))
		}
	}
}

// TestCompactVerifyAllocatesNothing: checking a compact certificate —
// valid or forged — compares the dealer MAC in place.
func TestCompactVerifyAllocatesNothing(t *testing.T) {
	s := newScheme(t, 9, 5, ModeCompact)
	msg := []byte("a sign base of ordinary length, tag and value included")
	cert, err := s.Combine(msg, collectShares(t, s, msg, 0, 2, 4, 6, 8))
	if err != nil {
		t.Fatal(err)
	}
	forged := cert.Clone()
	forged.Tag[0] ^= 1
	if a := testing.AllocsPerRun(200, func() {
		if !s.Verify(msg, cert) || s.Verify(msg, forged) {
			t.Fatal("verify gave the wrong answer")
		}
	}); a > 0 {
		t.Errorf("compact Scheme.Verify allocates %.0f, want 0", a)
	}
}

func TestParseModeInvertsString(t *testing.T) {
	for _, m := range []Mode{ModeCompact, ModeAggregate} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMode("bogus"); err == nil || err.Error() != `unknown mode "bogus" (compact | aggregate)` {
		t.Errorf("ParseMode(bogus) error = %v", err)
	}
}
