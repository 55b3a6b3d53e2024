package sig

import (
	"bytes"
	"testing"

	"adaptiveba/internal/crypto/keyedmac"
	"adaptiveba/internal/types"
)

// macsAcross returns how many HMACs the rings computed during fn.
func macsAcross(fn func()) uint64 {
	before := RingMACs()
	fn()
	return RingMACs() - before
}

// TestSignRecordRefusesNearMisses: a signature the ring recorded is
// answered without a MAC, and the record answers for nothing else. Each
// one-bit flip of the message or of the tag, and a check under every other
// signer, is refused — by the MAC, which the record hands them to.
func TestSignRecordRefusesNearMisses(t *testing.T) {
	const n = 4
	ring, _ := NewHMACRing(n, []byte("near-miss"))
	msg := []byte("wba/s0/vote phase 3 value 0123456789abcdef")
	s, err := ring.Sign(1, msg)
	if err != nil {
		t.Fatal(err)
	}
	if macs := macsAcross(func() {
		if !ring.Verify(1, msg, s) {
			t.Fatal("recorded signature rejected")
		}
	}); macs != 0 {
		t.Errorf("a recorded signature cost %d MACs to check, want 0", macs)
	}
	for bit := 0; bit < 8*len(msg); bit++ {
		m := bytes.Clone(msg)
		m[bit/8] ^= 1 << (bit % 8)
		if macs := macsAcross(func() {
			if ring.Verify(1, m, s) {
				t.Fatalf("signature accepted with message bit %d flipped", bit)
			}
		}); macs != 1 {
			t.Fatalf("message bit %d flipped: %d MACs, want 1", bit, macs)
		}
	}
	for bit := 0; bit < 8*len(s); bit++ {
		bad := s.Clone()
		bad[bit/8] ^= 1 << (bit % 8)
		if ring.Verify(1, msg, bad) {
			t.Fatalf("signature accepted with tag bit %d flipped", bit)
		}
	}
	if ring.Verify(1, msg, s[:len(s)-1]) || ring.Verify(1, msg, append(s.Clone(), 0)) {
		t.Error("a truncated or extended tag was accepted")
	}
	for id := types.ProcessID(0); id < n; id++ {
		if id != 1 && ring.Verify(id, msg, s) {
			t.Errorf("signature of 1 accepted as %v's", id)
		}
	}
}

// TestSignRecordIsPerRing: one ring's record never answers for another
// ring. A ring under another seed refuses the signature; a ring under the
// same seed accepts it, and pays a MAC to do so.
func TestSignRecordIsPerRing(t *testing.T) {
	a, _ := NewHMACRing(3, []byte("seed"))
	same, _ := NewHMACRing(3, []byte("seed"))
	other, _ := NewHMACRing(3, []byte("other"))
	msg := []byte("m")
	s, _ := a.Sign(2, msg)
	if macs := macsAcross(func() {
		if !same.Verify(2, msg, s) {
			t.Error("same-seed ring rejected the signature")
		}
	}); macs != 1 {
		t.Errorf("same-seed ring checked another ring's signature with %d MACs, want 1", macs)
	}
	if other.Verify(2, msg, s) {
		t.Error("a ring under another seed accepted the signature")
	}
}

// TestSignRecordFallsBackToMAC: a message longer than a record slot holds,
// and a signature whose slot has since been overwritten, still verify —
// by MAC, and correctly both ways.
func TestSignRecordFallsBackToMAC(t *testing.T) {
	ring, _ := NewHMACRing(2, []byte("fallback"))
	long := bytes.Repeat([]byte{7}, keyedmac.RecordMsgCap+1)
	evicted := []byte("signed first")
	sl, _ := ring.Sign(0, long)
	se, _ := ring.Sign(1, evicted)
	for i := 0; i < keyedmac.RecordEntries; i++ {
		if _, err := ring.Sign(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		id   types.ProcessID
		msg  []byte
		s    Signature
	}{{"too long to record", 0, long, sl}, {"evicted", 1, evicted, se}} {
		if macs := macsAcross(func() {
			if !ring.Verify(c.id, c.msg, c.s) {
				t.Errorf("%s: signature rejected", c.name)
			}
		}); macs != 1 {
			t.Errorf("%s: %d MACs to check, want 1", c.name, macs)
		}
		bad := c.s.Clone()
		bad[0] ^= 1
		if ring.Verify(c.id, c.msg, bad) {
			t.Errorf("%s: flipped tag accepted", c.name)
		}
		m := bytes.Clone(c.msg)
		m[len(m)-1] ^= 1
		if ring.Verify(c.id, m, c.s) {
			t.Errorf("%s: signature accepted for another message", c.name)
		}
	}
}
