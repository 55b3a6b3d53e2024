package types

import (
	"math/rand"
	"testing"
)

func TestBitSetContainsAll(t *testing.T) {
	a := NewBitSet(200)
	b := NewBitSet(200)
	for _, id := range []ProcessID{1, 64, 128, 199} {
		a.Add(id)
	}
	if !a.ContainsAll(b) {
		t.Error("empty set not contained")
	}
	b.Add(64)
	b.Add(199)
	if !a.ContainsAll(b) {
		t.Error("subset rejected")
	}
	b.Add(2)
	if a.ContainsAll(b) {
		t.Error("non-subset accepted")
	}
	if !a.ContainsAll(nil) {
		t.Error("nil not contained")
	}
	// A wider set with a member beyond a's capacity is not contained.
	wide := NewBitSet(512)
	wide.Add(300)
	if a.ContainsAll(wide) {
		t.Error("member beyond capacity accepted")
	}
}

func TestBitSetNextSet(t *testing.T) {
	b := NewBitSet(257)
	for _, id := range []ProcessID{3, 64, 191, 256} {
		b.Add(id)
	}
	var got []ProcessID
	for id, ok := b.NextSet(0); ok; id, ok = b.NextSet(int(id) + 1) {
		got = append(got, id)
	}
	want := []ProcessID{3, 64, 191, 256}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	if id, ok := b.NextSet(257); ok || id != NilProcess {
		t.Error("NextSet past capacity returned a member")
	}
	if id, ok := b.NextSet(-5); !ok || id != 3 {
		t.Errorf("NextSet(-5) = %v, %v", id, ok)
	}
	if _, ok := NewBitSet(0).NextSet(0); ok {
		t.Error("empty-capacity set returned a member")
	}
}

// FuzzBitSetOps drives the new dense-state operations against a
// map-based model over capacities that cross many word boundaries.
func FuzzBitSetOps(f *testing.F) {
	f.Add(int64(1), 70, uint8(16))
	f.Add(int64(2), 257, uint8(64))
	f.Add(int64(3), 64, uint8(3))
	f.Add(int64(4), 1, uint8(1))
	f.Add(int64(5), 4096, uint8(128))
	f.Fuzz(func(t *testing.T, seed int64, n int, ops uint8) {
		if n < 0 || n > 1<<14 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		b := NewBitSet(n)
		model := make(map[ProcessID]bool)
		for i := 0; i < int(ops); i++ {
			switch rng.Intn(3) {
			case 0: // add
				id := ProcessID(rng.Intn(n + 1)) // may be == n (out of range)
				b.Add(id)
				if int(id) < n {
					model[id] = true
				}
			case 1: // remove
				id := ProcessID(rng.Intn(n + 1))
				b.Remove(id)
				delete(model, id)
			case 2: // reset occasionally
				if rng.Intn(8) == 0 {
					b.Reset()
					model = make(map[ProcessID]bool)
				}
			}
		}

		// Membership, count, and canonical encoding match the model.
		if b.Count() != len(model) {
			t.Fatalf("Count = %d, model %d", b.Count(), len(model))
		}
		if _, err := BitSetFromWords(n, b.Words()); err != nil {
			t.Fatalf("non-canonical words after ops: %v", err)
		}
		for id := range model {
			if !b.Has(id) {
				t.Fatalf("missing %v", id)
			}
		}

		// NextSet walks exactly the model's members in ascending order.
		walked := 0
		prev := ProcessID(-1)
		for id, ok := b.NextSet(0); ok; id, ok = b.NextSet(int(id) + 1) {
			if id <= prev {
				t.Fatalf("NextSet not ascending: %v after %v", id, prev)
			}
			if !model[id] {
				t.Fatalf("NextSet yielded non-member %v", id)
			}
			prev = id
			walked++
		}
		if walked != len(model) {
			t.Fatalf("NextSet walked %d members, model has %d", walked, len(model))
		}

		// ContainsAll agrees with the model for a random subset and a
		// perturbed non-subset.
		sub := NewBitSet(n)
		for id := range model {
			if rng.Intn(2) == 0 {
				sub.Add(id)
			}
		}
		if !b.ContainsAll(sub) {
			t.Fatal("subset rejected")
		}
		if n > 0 {
			extra := ProcessID(rng.Intn(n))
			if !model[extra] {
				sub.Add(extra)
				if b.ContainsAll(sub) {
					t.Fatalf("non-subset accepted (extra %v)", extra)
				}
			}
		}
	})
}
