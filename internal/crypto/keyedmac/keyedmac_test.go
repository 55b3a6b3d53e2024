package keyedmac

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

func fresh(key []byte, parts ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	for _, p := range parts {
		mac.Write(p)
	}
	return mac.Sum(nil)
}

// TestReusedStateMatchesFreshHMAC is the differential check behind the
// reuse invariant: whatever a state MACed before, after Reset it computes
// exactly what a fresh hmac.New over the same key would — over random
// keys (shorter and longer than the block size), message lengths on both
// sides of the 64-byte block boundary, and every finisher.
func TestReusedStateMatchesFreshHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, keyLen := range []int{0, 1, 31, 32, 64, 65, 200} {
		key := make([]byte, keyLen)
		rng.Read(key)
		var p Pool
		p.Init(key)
		for i := 0; i < 200; i++ {
			msg := make([]byte, rng.Intn(300))
			rng.Read(msg)
			num := rng.Uint64()
			var nb [8]byte
			binary.BigEndian.PutUint64(nb[:], num)
			want := fresh(key, nb[:], msg)

			st := p.Get()
			st.WriteUint64(num)
			st.Write(msg)
			n := 1 + rng.Intn(Size)
			switch i % 3 {
			case 0:
				if got := st.Tag(n); !bytes.Equal(got, want[:n]) {
					t.Fatalf("key %d B, use %d: reused state tag %x, fresh hmac %x", keyLen, i, got, want[:n])
				}
			case 1:
				got := bytes.Repeat([]byte{0xa5}, n+1)
				st.TagTo(got[:n])
				if !bytes.Equal(got[:n], want[:n]) || got[n] != 0xa5 {
					t.Fatalf("key %d B, use %d: reused state wrote %x, fresh hmac %x", keyLen, i, got, want[:n])
				}
			default:
				if !st.Equal(want[:n], n) {
					t.Fatalf("key %d B, use %d: reused state rejects the fresh hmac's tag", keyLen, i)
				}
			}
			p.Put(st)

			// A rejected comparison must leave the state just as reusable.
			st = p.Get()
			st.WriteUint64(num)
			st.Write(msg)
			bad := append([]byte(nil), want[:n]...)
			bad[rng.Intn(n)] ^= 1
			if st.Equal(bad, n) {
				t.Fatalf("key %d B, use %d: forged tag accepted", keyLen, i)
			}
			p.Put(st)
		}
		if len(p.free) != 1 {
			t.Errorf("key %d B: serial use built %d states, want 1", keyLen, len(p.free))
		}
	}
}

// TestEqualRejectsWrongLength pins that a truncated or padded tag never
// compares equal, whatever its bytes.
func TestEqualRejectsWrongLength(t *testing.T) {
	var p Pool
	p.Init([]byte("k"))
	want := fresh([]byte("k"), []byte("m"))
	for _, tag := range [][]byte{nil, want[:15], want[:17], want} {
		st := p.Get()
		st.Write([]byte("m"))
		if st.Equal(tag, 16) {
			t.Errorf("%d-byte tag accepted against a 16-byte MAC", len(tag))
		}
		p.Put(st)
	}
}

// TestTagIsExactCapacity: nothing of the untruncated MAC hides behind a
// tag, and appending to one cannot reach the state's digest buffer.
func TestTagIsExactCapacity(t *testing.T) {
	var p Pool
	p.Init([]byte("k"))
	st := p.Get()
	st.Write([]byte("m"))
	tag := st.Tag(16)
	if len(tag) != 16 || cap(tag) != 16 {
		t.Fatalf("tag len=%d cap=%d, want 16/16", len(tag), cap(tag))
	}
	sum := st.sum
	_ = append(tag, 0xff)
	tag[0] ^= 0xff
	if st.sum != sum {
		t.Error("writing through a returned tag changed the state's digest buffer")
	}
}

// TestSteadyStateAllocs: once a state exists, a MAC allocates only the
// tag it returns, and one written into a caller's buffer or compared
// allocates nothing. Once the sign record exists, Sign allocates only its
// tag, and Check nothing, whether the record answers or a MAC does.
func TestSteadyStateAllocs(t *testing.T) {
	var p Pool
	p.Init([]byte("key"))
	msg := bytes.Repeat([]byte("m"), 100)
	st := p.Get()
	st.Write(msg)
	tag := st.Tag(16)
	p.Put(st)

	if a := testing.AllocsPerRun(200, func() {
		st := p.Get()
		st.WriteUint64(7)
		st.Write(msg)
		_ = st.Tag(16)
		p.Put(st)
	}); a > 1 {
		t.Errorf("Get/Write/Tag/Put allocates %.0f, want 1 (the tag)", a)
	}
	var buf [16]byte
	if a := testing.AllocsPerRun(200, func() {
		st := p.Get()
		st.Write(msg)
		st.TagTo(buf[:])
		p.Put(st)
	}); a > 0 || !bytes.Equal(buf[:], tag) {
		t.Errorf("Get/Write/TagTo/Put allocates %.0f (want 0) and writes %x (want %x)", a, buf, tag)
	}
	if a := testing.AllocsPerRun(200, func() {
		st := p.Get()
		st.Write(msg)
		if !st.Equal(tag, 16) {
			t.Fatal("own tag rejected")
		}
		p.Put(st)
	}); a > 0 {
		t.Errorf("Get/Write/Equal/Put allocates %.0f, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { _ = p.Sign(msg, 16) }); a > 1 {
		t.Errorf("Sign allocates %.0f, want 1 (the tag)", a)
	}
	long := bytes.Repeat([]byte("m"), RecordMsgCap+1)
	longTag := p.Sign(long, 16)
	if a := testing.AllocsPerRun(200, func() {
		if ok, mac := p.Check(msg, tag, 16); !ok || mac {
			t.Fatal("recorded tag not answered from the record")
		}
		if ok, mac := p.Check(long, longTag, 16); !ok || !mac {
			t.Fatal("unrecorded tag not MACed")
		}
	}); a > 0 {
		t.Errorf("Check allocates %.0f, want 0", a)
	}
}

// TestPoolConcurrent MACs through one pool from 8 goroutines at once; run
// under -race. Every result must equal the fresh-hmac reference, and the
// pool must end up holding at most one state per concurrent user.
func TestPoolConcurrent(t *testing.T) {
	key := []byte("shared-key")
	var p Pool
	p.Init(key)
	const goroutines, iters = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte(g)}, 10+g*17)
			want := fresh(key, msg)
			for i := 0; i < iters; i++ {
				st := p.Get()
				st.Write(msg)
				got := st.Tag(Size)
				p.Put(st)
				if !bytes.Equal(got, want) {
					t.Errorf("goroutine %d iter %d: tag differs from fresh hmac", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(p.free); n < 1 || n > goroutines {
		t.Errorf("pool holds %d states after %d concurrent users", n, goroutines)
	}
}

// TestSignRecordMatchesMAC is the differential check of the sign record:
// over random keys and messages on both sides of RecordMsgCap, Sign's tag
// is the fresh hmac's, and Check gives the fresh hmac's answer for the
// signed pair, a flipped tag, a flipped message, another tag length and a
// pair the record has evicted — from the record exactly when the record
// holds the pair, by MAC otherwise.
func TestSignRecordMatchesMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(p *Pool, msg, tag []byte, n int, wantOK, wantMAC bool, what string) {
		t.Helper()
		if ok, mac := p.Check(msg, tag, n); ok != wantOK || mac != wantMAC {
			t.Fatalf("%s: Check = (ok %t, mac %t), want (%t, %t)", what, ok, mac, wantOK, wantMAC)
		}
	}
	for _, keyLen := range []int{0, 16, 65} {
		key := make([]byte, keyLen)
		rng.Read(key)
		var p Pool
		p.Init(key)
		for i := 0; i < 300; i++ {
			msg := make([]byte, rng.Intn(2*RecordMsgCap))
			rng.Read(msg)
			want := fresh(key, msg)
			n := 1 + rng.Intn(Size)
			tag := p.Sign(msg, n)
			if !bytes.Equal(tag, want[:n]) || cap(tag) != n {
				t.Fatalf("key %d B, use %d: Sign gave %x (cap %d), fresh hmac %x", keyLen, i, tag, cap(tag), want[:n])
			}
			recorded := len(msg) <= RecordMsgCap
			check(&p, msg, tag, n, true, !recorded, "signed pair")
			m := 1 + rng.Intn(Size)
			check(&p, msg, want[:m], m, true, !recorded, "signed message, other tag length")
			bad := append([]byte(nil), tag...)
			bad[rng.Intn(n)] ^= 1 << rng.Intn(8)
			check(&p, msg, bad, n, false, true, "flipped tag")
			if len(msg) > 0 {
				other := append([]byte(nil), msg...)
				other[rng.Intn(len(other))] ^= 1 << rng.Intn(8)
				check(&p, other, tag, n, false, true, "flipped message")
			}
		}

		// A pair signed RecordEntries signatures ago has been overwritten.
		old := []byte("evicted")
		tag := p.Sign(old, 16)
		for i := 0; i < RecordEntries; i++ {
			p.Sign([]byte{byte(i)}, 16)
		}
		check(&p, old, tag, 16, true, true, "evicted pair")
	}
}

// TestSignRecordEmptySlots: a slot nothing was signed into answers for
// nothing, not even the empty message with an all-zero tag.
func TestSignRecordEmptySlots(t *testing.T) {
	var p Pool
	p.Init([]byte("k"))
	zero := make([]byte, 16)
	if ok, _ := p.Check(nil, zero, 16); ok {
		t.Fatal("a pool that never signed accepted a zero tag")
	}
	p.Sign([]byte("m"), 16)
	if ok, mac := p.Check(nil, zero, 16); ok || !mac {
		t.Errorf("after one Sign: Check(empty, zero tag) = (ok %t, mac %t), want a computed refusal", ok, mac)
	}
}

// TestSignRecordConcurrent signs and checks through one pool from 8
// goroutines at once, each with messages on both sides of RecordMsgCap;
// run under -race. Every tag equals the fresh-hmac reference, and every
// check gives the fresh hmac's answer.
func TestSignRecordConcurrent(t *testing.T) {
	key := []byte("shared-key")
	var p Pool
	p.Init(key)
	const goroutines, iters = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				msg := make([]byte, 1+rng.Intn(2*RecordMsgCap))
				rng.Read(msg)
				tag := p.Sign(msg, 16)
				if !bytes.Equal(tag, fresh(key, msg)[:16]) {
					t.Errorf("goroutine %d iter %d: tag differs from fresh hmac", g, i)
					return
				}
				if ok, _ := p.Check(msg, tag, 16); !ok {
					t.Errorf("goroutine %d iter %d: own tag rejected", g, i)
					return
				}
				msg[0] ^= 1
				if ok, _ := p.Check(msg, tag, 16); ok {
					t.Errorf("goroutine %d iter %d: tag accepted for another message", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
