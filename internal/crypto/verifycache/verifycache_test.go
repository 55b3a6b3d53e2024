package verifycache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/types"
)

func testRing(t testing.TB, n int) *sig.HMACRing {
	t.Helper()
	r, err := sig.NewHMACRing(n, []byte("verifycache-test"))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDoMemoizes(t *testing.T) {
	c := New(64)
	k := SigKey(1, []byte("m"), sig.Signature("s"))
	calls := 0
	for i := 0; i < 5; i++ {
		if !c.Do(k, func() bool { calls++; return true }) {
			t.Fatal("cached result flipped")
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("stats = %+v, want 1 miss / 4 hits", st)
	}
}

func TestDoCachesNegatives(t *testing.T) {
	// Verification is deterministic, so a failed check is as cacheable as
	// a successful one.
	c := New(64)
	k := SigKey(2, []byte("m"), sig.Signature("bad"))
	calls := 0
	for i := 0; i < 3; i++ {
		if c.Do(k, func() bool { calls++; return false }) {
			t.Fatal("negative result flipped to positive")
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
}

func TestNilCacheComputesDirectly(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 3; i++ {
		if !c.Do(Key{}, func() bool { calls++; return true }) {
			t.Fatal("nil cache altered result")
		}
	}
	if calls != 3 {
		t.Errorf("nil cache memoized: %d calls, want 3", calls)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
	if _, ok := c.Lookup(Key{}); ok {
		t.Error("nil cache lookup hit")
	}
}

func TestCapacityBound(t *testing.T) {
	const capacity = 16
	c := New(capacity)
	for i := 0; i < 10*capacity; i++ {
		k := SigKey(types.ProcessID(i), []byte("m"), sig.Signature(fmt.Sprintf("s%d", i)))
		c.Do(k, func() bool { return true })
	}
	st := c.Stats()
	if st.Entries > capacity {
		t.Errorf("%d entries resident, capacity %d", st.Entries, capacity)
	}
	if st.Evictions == 0 {
		t.Error("no evictions after 10x-capacity inserts")
	}
	if st.Misses != 10*capacity {
		t.Errorf("misses = %d, want %d (all keys distinct)", st.Misses, 10*capacity)
	}
}

func TestEvictedKeyRecomputes(t *testing.T) {
	c := New(4) // half = 2: generations rotate every 2 inserts
	k0 := SigKey(0, []byte("m"), sig.Signature("s0"))
	calls := 0
	c.Do(k0, func() bool { calls++; return true })
	for i := 1; i < 8; i++ {
		c.Do(SigKey(types.ProcessID(i), []byte("m"), sig.Signature(fmt.Sprintf("s%d", i))), func() bool { return true })
	}
	c.Do(k0, func() bool { calls++; return true })
	if calls != 2 {
		t.Errorf("evicted key computed %d times, want 2", calls)
	}
}

func TestKeyCommitsToEveryField(t *testing.T) {
	msg, sg := []byte("message"), sig.Signature("signature")
	base := SigKey(1, msg, sg)
	if SigKey(2, msg, sg) == base {
		t.Error("key ignores signer")
	}
	if SigKey(1, []byte("messagf"), sg) == base {
		t.Error("key ignores message content")
	}
	if SigKey(1, msg, sig.Signature("signaturf")) == base {
		t.Error("key ignores signature content")
	}
	if SigKey(1, msg[:6], append(sg.Clone(), msg[6:]...)) == base {
		t.Error("key is not injective across the msg/sig boundary")
	}
	// Domain separation: a sig key can never equal a cert-domain key over
	// the same raw bytes.
	h := NewHasher("cert")
	h.Uint64(1)
	h.Bytes(msg)
	h.Bytes(sg)
	if h.Sum() == base {
		t.Error("domains collide")
	}
}

func TestWrapScheme(t *testing.T) {
	ring := testRing(t, 4)
	c := New(1024)
	s := WrapScheme(ring, c)
	if s.Name() != "hmac+cache" {
		t.Errorf("name = %q", s.Name())
	}
	if s.N() != 4 || s.SignatureSize() != ring.SignatureSize() {
		t.Error("scheme metadata not forwarded")
	}
	msg := []byte("hello")
	sg, err := s.Sign(1, msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !s.Verify(1, msg, sg) {
			t.Fatal("valid signature rejected")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss / 2 hits", st)
	}
	cs := s.(*Scheme)
	if cs.Unwrap() != sig.Scheme(ring) || cs.Cache() != c {
		t.Error("accessors broken")
	}
	// Nil cache: wrapping is the identity.
	if WrapScheme(ring, nil) != sig.Scheme(ring) {
		t.Error("nil cache did not return inner scheme")
	}
}

func TestWrapSchemeRejectsUnknownSigner(t *testing.T) {
	s := WrapScheme(testRing(t, 3), New(64))
	if s.Verify(7, []byte("m"), sig.Signature("x")) {
		t.Error("out-of-range signer accepted")
	}
	if s.Verify(-1, []byte("m"), sig.Signature("x")) {
		t.Error("negative signer accepted")
	}
	if _, err := s.Sign(9, []byte("m")); err == nil {
		t.Error("out-of-range signer signed")
	}
}

func TestDoSurvivesComputePanic(t *testing.T) {
	c := New(64)
	k := SigKey(0, []byte("m"), sig.Signature("s"))
	func() {
		defer func() { recover() }()
		c.Do(k, func() bool { panic("boom") })
	}()
	// The key must not be stuck in flight or cached: the next Do computes.
	calls := 0
	if !c.Do(k, func() bool { calls++; return true }) || calls != 1 {
		t.Errorf("cache wedged after panic: calls=%d", calls)
	}
}

// TestSigKeyMatchesReferenceSerialization pins the key derivation bytes
// against a one-shot SHA-256 of the documented serialization — domain,
// signer, message and signature, each length-prefixed — across many keys
// computed back to back, so a recycled Hasher that kept anything of its
// previous use would show.
func TestSigKeyMatchesReferenceSerialization(t *testing.T) {
	put := func(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
	for i := 0; i < 50; i++ {
		signer := types.ProcessID(i - 3)
		msg := bytes.Repeat([]byte{byte(i)}, i*5)
		sg := sig.Signature(bytes.Repeat([]byte{byte(255 - i)}, i%20))
		var ref []byte
		ref = append(put(ref, 3), "sig"...)
		ref = put(ref, uint64(signer))
		ref = append(put(ref, uint64(len(msg))), msg...)
		ref = append(put(ref, uint64(len(sg))), sg...)
		if got, want := SigKey(signer, msg, sg), Key(sha256.Sum256(ref)); got != want {
			t.Fatalf("key %d: pooled hasher %x, reference %x", i, got, want)
		}
	}
	long := NewHasher("a-domain-longer-than-the-scratch")
	long.Bytes([]byte("x"))
	var ref []byte
	ref = append(put(ref, 32), "a-domain-longer-than-the-scratch"...)
	ref = append(put(ref, 1), 'x')
	if got, want := long.Sum(), Key(sha256.Sum256(ref)); got != want {
		t.Errorf("long domain: pooled hasher %x, reference %x", got, want)
	}
}

// TestVerifyHitAllocatesNothing: a verification answered from the cache —
// key hashing, lookup, answer — leaves no heap garbage, for cached
// positives and cached negatives alike.
func TestVerifyHitAllocatesNothing(t *testing.T) {
	ring := testRing(t, 4)
	s := WrapScheme(ring, New(64))
	msg := bytes.Repeat([]byte("sign base "), 9)
	good, _ := ring.Sign(1, msg)
	bad := good.Clone()
	bad[0] ^= 1
	if !s.Verify(1, msg, good) || s.Verify(1, msg, bad) {
		t.Fatal("first-sight verification gave the wrong answer")
	}
	// One Verify per measured run: under -race sync.Pool drops a quarter
	// of its Puts, and AllocsPerRun's integer average absorbs that only
	// while a run expects less than one refill.
	for name, c := range map[string]struct {
		sg   sig.Signature
		want bool
	}{"positive": {good, true}, "negative": {bad, false}} {
		if a := testing.AllocsPerRun(200, func() {
			if s.Verify(1, msg, c.sg) != c.want {
				t.Fatal("cached verification gave the wrong answer")
			}
		}); a > 0 {
			t.Errorf("verifycache.Scheme.Verify hit (cached %s) allocates %.0f, want 0", name, a)
		}
	}
}
