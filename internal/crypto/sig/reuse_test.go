package sig

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"adaptiveba/internal/crypto/keyedmac"
	"adaptiveba/internal/types"
)

// referenceTag recomputes what HMACRing must produce from first
// principles: derive the identity's key from the seed, then MAC msg with
// a fresh hmac.New — no state shared with the ring under test.
func referenceTag(seed []byte, id types.ProcessID, msg []byte) []byte {
	kd := hmac.New(sha256.New, seed)
	var idb [8]byte
	binary.BigEndian.PutUint64(idb[:], uint64(id))
	kd.Write([]byte("adaptiveba/keyderive"))
	kd.Write(idb[:])
	mac := hmac.New(sha256.New, kd.Sum(nil))
	mac.Write(msg)
	return mac.Sum(nil)[:hmacTagSize]
}

// TestHMACRingMatchesFreshHMAC is the differential test for the reused
// keyed states: over random seeds, signers and messages, interleaving
// signs, accepted verifies and rejected verifies on one long-lived ring,
// every tag equals the one a fresh hmac.New produces.
func TestHMACRingMatchesFreshHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 8; round++ {
		seed := make([]byte, 1+rng.Intn(80))
		rng.Read(seed)
		const n = 5
		ring, err := NewHMACRing(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			id := types.ProcessID(rng.Intn(n))
			msg := make([]byte, rng.Intn(200))
			rng.Read(msg)
			want := referenceTag(seed, id, msg)
			got, err := ring.Sign(id, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d use %d: ring tag %x, fresh hmac %x", round, i, got, want)
			}
			if !ring.Verify(id, msg, want) {
				t.Fatalf("round %d use %d: ring rejects the fresh hmac's tag", round, i)
			}
			bad := Signature(want).Clone()
			bad[rng.Intn(len(bad))] ^= 0x80
			if ring.Verify(id, msg, bad) {
				t.Fatalf("round %d use %d: ring accepts a flipped tag", round, i)
			}
			if other := types.ProcessID((int(id) + 1) % n); ring.Verify(other, msg, want) {
				t.Fatalf("round %d use %d: tag of %v verifies as %v", round, i, id, other)
			}
		}
	}
}

// TestHMACTagIsExactCapacity pins that a tag is not a window onto the
// untruncated MAC: s[:cap(s)] reveals nothing more, and an append to a
// Signature allocates instead of writing behind it.
func TestHMACTagIsExactCapacity(t *testing.T) {
	ring, _ := NewHMACRing(3, []byte("seed"))
	s, err := ring.Sign(1, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != hmacTagSize || cap(s) != len(s) {
		t.Fatalf("tag len=%d cap=%d, want %d/%d", len(s), cap(s), hmacTagSize, hmacTagSize)
	}
	// A second signature must not share memory with the first.
	s2, _ := ring.Sign(1, []byte("other"))
	if &s[0] == &s2[0] {
		t.Error("two signatures share a backing array")
	}
	if !ring.Verify(1, []byte("m"), s) {
		t.Error("first signature no longer verifies after a second Sign")
	}
}

// TestHMACAllocCeilings: with the identity's keyed state and sign record
// built, Sign allocates only the returned tag and Verify — accepting or
// rejecting, answered from the record or by MAC — allocates nothing.
func TestHMACAllocCeilings(t *testing.T) {
	ring, _ := NewHMACRing(4, []byte("seed"))
	msg := bytes.Repeat([]byte("sign base "), 9)
	s, _ := ring.Sign(2, msg)
	bad := s.Clone()
	bad[3] ^= 1
	if a := testing.AllocsPerRun(200, func() {
		if _, err := ring.Sign(2, msg); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("HMACRing.Sign allocates %.0f, want <= 1", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if !ring.Verify(2, msg, s) || ring.Verify(2, msg, bad) {
			t.Fatal("verify gave the wrong answer")
		}
	}); a > 0 {
		t.Errorf("HMACRing.Verify allocates %.0f, want 0", a)
	}
	var macs uint64
	if a := testing.AllocsPerRun(200, func() {
		macs -= RingMACs()
		if !ring.Verify(2, msg, s) {
			t.Fatal("recorded signature rejected")
		}
		macs += RingMACs()
	}); a > 0 || macs != 0 {
		t.Errorf("a check answered from the record allocates %.0f and costs %d MACs, want 0 and 0", a, macs)
	}
}

// TestHMACRingConcurrent signs and verifies through one ring from 8
// goroutines at once, all identities shared, with messages on both sides
// of a sign record slot, so that checks answered from the records and by
// MAC interleave with signs overwriting them (run under -race -count=10).
func TestHMACRingConcurrent(t *testing.T) {
	seed := []byte("concurrent")
	const n, goroutines, iters = 3, 8, 200
	ring, _ := NewHMACRing(n, seed)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				id := types.ProcessID(rng.Intn(n))
				msg := make([]byte, 1+rng.Intn(2*keyedmac.RecordMsgCap))
				rng.Read(msg)
				s, err := ring.Sign(id, msg)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(s, referenceTag(seed, id, msg)) {
					t.Errorf("goroutine %d iter %d: tag differs from fresh hmac", g, i)
					return
				}
				if !ring.Verify(id, msg, s) {
					t.Errorf("goroutine %d iter %d: own signature rejected", g, i)
					return
				}
				msg[0] ^= 1
				if ring.Verify(id, msg, s) {
					t.Errorf("goroutine %d iter %d: signature verified for a different message", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
