package verifycache

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/types"
)

// TestConcurrentLookupStress drives many goroutines through overlapping
// (signer, msg, sig) sets, phase-shifted so that identical keys are
// looked up at once. Every caller must observe the correct verification
// result, and every lookup counts as exactly one hit or one miss. Run
// under -race this is the cache's concurrency gate (session groups and
// the TCP transport's connection goroutines share one cache).
func TestConcurrentLookupStress(t *testing.T) {
	const (
		goroutines = 16
		keys       = 64
		iterations = 200
	)
	ring, err := sig.NewHMACRing(8, []byte("stress"))
	if err != nil {
		t.Fatal(err)
	}
	type item struct {
		signer types.ProcessID
		msg    []byte
		sig    sig.Signature
		valid  bool
	}
	items := make([]item, keys)
	for i := range items {
		signer := types.ProcessID(i % 8)
		msg := []byte(fmt.Sprintf("msg-%d", i/2))
		sg, err := ring.Sign(signer, msg)
		if err != nil {
			t.Fatal(err)
		}
		valid := i%3 != 0
		if !valid {
			sg = sg.Clone()
			sg[0] ^= 0xff
		}
		items[i] = item{signer: signer, msg: msg, sig: sg, valid: valid}
	}

	c := New(16 * keys)
	var computes atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for it := 0; it < iterations; it++ {
				i := (it + g) % keys
				got := c.Do(SigKey(items[i].signer, items[i].msg, items[i].sig), func() bool {
					computes.Add(1)
					return ring.Verify(items[i].signer, items[i].msg, items[i].sig)
				})
				if got != items[i].valid {
					errs <- fmt.Sprintf("key %d: got %v, want %v", i, got, items[i].valid)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := c.Stats()
	if lookups := int64(goroutines * iterations); st.Hits+st.Misses != lookups {
		t.Errorf("hits+misses = %d+%d, want %d lookups", st.Hits, st.Misses, lookups)
	}
	if st.Misses != computes.Load() || st.Misses < keys {
		t.Errorf("misses = %d, computes = %d, want equal and at least %d", st.Misses, computes.Load(), keys)
	}
	if st.Entries != keys {
		t.Errorf("entries = %d, want %d", st.Entries, keys)
	}
}

// TestConcurrentWrappedScheme hammers one cached scheme from many
// goroutines mixing valid and forged signatures (race + correctness).
func TestConcurrentWrappedScheme(t *testing.T) {
	ring, err := sig.NewHMACRing(4, []byte("wrap-stress"))
	if err != nil {
		t.Fatal(err)
	}
	s := WrapScheme(ring, New(512))
	msgs := make([][]byte, 16)
	sigs := make([]sig.Signature, 16)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("m%d", i))
		sigs[i], err = s.Sign(types.ProcessID(i%4), msgs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 300; it++ {
				i := (it + g) % 16
				signer := types.ProcessID(i % 4)
				if !s.Verify(signer, msgs[i], sigs[i]) {
					failures.Add(1)
				}
				forged := sigs[i].Clone()
				forged[it%len(forged)] ^= 1
				if s.Verify(signer, msgs[i], forged) {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Errorf("%d wrong verification results under concurrency", failures.Load())
	}
}

// FuzzCachedVerifyMatchesDirect checks the cache is semantically
// transparent: for arbitrary (signer, msg, sig) inputs the cached scheme
// must agree with the bare scheme, on first sight and from the cache,
// including for real signatures and their single-byte corruptions.
func FuzzCachedVerifyMatchesDirect(f *testing.F) {
	f.Add(int64(0), []byte("msg"), []byte("sig"))
	f.Add(int64(3), []byte(""), []byte(""))
	f.Add(int64(-1), []byte("x"), bytes.Repeat([]byte{0xaa}, 16))
	f.Fuzz(func(t *testing.T, signer int64, msg, rawSig []byte) {
		ring, err := sig.NewHMACRing(4, []byte("fuzz"))
		if err != nil {
			t.Fatal(err)
		}
		cached := WrapScheme(ring, New(256))
		id := types.ProcessID(signer)
		want := ring.Verify(id, msg, rawSig)
		for i := 0; i < 2; i++ { // first sight, then cached
			if got := cached.Verify(id, msg, rawSig); got != want {
				t.Fatalf("pass %d: cached=%v direct=%v", i, got, want)
			}
		}
		// A genuine signature must verify through the cache, and its
		// corruption must not inherit the cached positive.
		okID := types.ProcessID(((signer % 4) + 4) % 4)
		genuine, err := ring.Sign(okID, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !cached.Verify(okID, msg, genuine) {
			t.Fatal("genuine signature rejected")
		}
		corrupt := genuine.Clone()
		corrupt[int(uint64(signer)%uint64(len(corrupt)))] ^= 0x01
		if cached.Verify(okID, msg, corrupt) {
			t.Fatal("corrupted signature accepted after genuine cached")
		}
	})
}
