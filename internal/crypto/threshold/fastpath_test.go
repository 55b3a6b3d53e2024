package threshold

import (
	"crypto/rand"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/verifycache"
	"adaptiveba/internal/types"
)

func fastpathScheme(t *testing.T, n, k int, opts ...Option) *Scheme {
	t.Helper()
	base, err := sig.NewHMACRing(n, []byte("fastpath-test"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(base, k, ModeAggregate, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quorumIDs(k int) []types.ProcessID {
	ids := make([]types.ProcessID, k)
	for i := range ids {
		ids[i] = types.ProcessID(i)
	}
	return ids
}

// TestAggregateVerifyRejectsTampering: an aggregate certificate passes
// Verify intact and fails it after any single share is tampered with, after
// its signer set is inflated so that the shares no longer line up, and
// under another message.
func TestAggregateVerifyRejectsTampering(t *testing.T) {
	const n, k = 21, 14
	msg := []byte("aggregate tampering")
	s := fastpathScheme(t, n, k)
	cert, err := s.Combine(msg, collectShares(t, s, msg, quorumIDs(k)...))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Verify(msg, cert) {
		t.Fatal("valid cert rejected")
	}
	for i := 0; i < k; i++ {
		c := cert.Clone()
		c.Shares[i][0] ^= 0x80
		if s.Verify(msg, c) {
			t.Errorf("cert with share %d tampered accepted", i)
		}
	}
	inflated := cert.Clone()
	inflated.Signers.Add(types.ProcessID(n - 1))
	if s.Verify(msg, inflated) {
		t.Error("inflated signer set accepted")
	}
	if s.Verify([]byte("other"), cert) {
		t.Error("cert verified under wrong message")
	}
}

// TestCertCacheForgerySafety: after a valid aggregate certificate is
// cached positive, any byte-level variation of its shares, signer set, or
// message must miss the cache and fail verification.
func TestCertCacheForgerySafety(t *testing.T) {
	const n, k = 9, 6
	cache := verifycache.New(4096)
	s := fastpathScheme(t, n, k, WithVerifyCache(cache))
	msg := []byte("decide 1 in view 7")
	cert, err := s.Combine(msg, collectShares(t, s, msg, quorumIDs(k)...))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Verify(msg, cert) {
		t.Fatal("valid cert rejected")
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("priming stats = %+v", st)
	}
	// Every share byte-flip must be a distinct key and fail.
	for i := 0; i < k; i++ {
		for _, bit := range []byte{0x01, 0x80} {
			c := cert.Clone()
			c.Shares[i][0] ^= bit
			if s.Verify(msg, c) {
				t.Fatalf("share %d flipped by %#x accepted", i, bit)
			}
		}
	}
	// Signer-set and message perturbations.
	c := cert.Clone()
	c.Signers.Add(types.ProcessID(n - 1))
	if s.Verify(msg, c) {
		t.Error("inflated signer set accepted")
	}
	if s.Verify(append([]byte(nil), msg[:len(msg)-1]...), cert) {
		t.Error("cert accepted for truncated message")
	}
	// The honest entry is still served — as a hit, not a recompute.
	before := cache.Stats()
	if !s.Verify(msg, cert) {
		t.Fatal("honest cert rejected after forgery probes")
	}
	after := cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("honest re-verify was not a pure hit: before=%+v after=%+v", before, after)
	}
}

// TestCompactModeNotCached: compact verification is one HMAC, so the
// cache must stay cold even when configured.
func TestCompactModeNotCached(t *testing.T) {
	base, err := sig.NewHMACRing(5, []byte("compact"))
	if err != nil {
		t.Fatal(err)
	}
	cache := verifycache.New(64)
	s, err := New(base, 3, ModeCompact, []byte("dealer"), WithVerifyCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	cert, err := s.Combine(msg, collectShares(t, s, msg, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !s.Verify(msg, cert) {
			t.Fatal("valid compact cert rejected")
		}
	}
	if st := cache.Stats(); st != (verifycache.Stats{}) {
		t.Errorf("compact verification touched the cache: %+v", st)
	}
}

// TestCachedCertWithEd25519 exercises the production pairing (ed25519
// base + cache) end to end.
func TestCachedCertWithEd25519(t *testing.T) {
	base, err := sig.NewEd25519Ring(7, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cache := verifycache.New(1024)
	s, err := New(base, 5, ModeAggregate, nil, WithVerifyCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("ed25519 cert")
	cert, err := s.Combine(msg, collectShares(t, s, msg, quorumIDs(5)...))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !s.Verify(msg, cert) {
			t.Fatal("valid cert rejected")
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 1 miss / 3 hits", st)
	}
	bad := cert.Clone()
	bad.Shares[2][10] ^= 0x40
	if s.Verify(msg, bad) {
		t.Error("tampered ed25519 cert accepted")
	}
}
