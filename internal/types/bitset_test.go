package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(70) // spans two words
	if b.Count() != 0 {
		t.Fatal("new set not empty")
	}
	for _, id := range []ProcessID{0, 1, 63, 64, 69} {
		if !b.Add(id) {
			t.Fatalf("Add(%v) rejected", id)
		}
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
	for _, id := range []ProcessID{0, 1, 63, 64, 69} {
		if !b.Has(id) {
			t.Errorf("missing %v", id)
		}
	}
	if b.Has(2) || b.Has(68) {
		t.Error("phantom members")
	}
	// Duplicate adds are idempotent.
	b.Add(0)
	if b.Count() != 5 {
		t.Error("duplicate add changed count")
	}
}

func TestBitSetBounds(t *testing.T) {
	b := NewBitSet(8)
	if b.Add(8) || b.Add(-1) || b.Add(NilProcess) {
		t.Error("out-of-range add accepted")
	}
	if b.Has(8) || b.Has(-1) {
		t.Error("out-of-range membership reported")
	}
	z := NewBitSet(0)
	if z.Count() != 0 || len(z.Members()) != 0 {
		t.Error("zero-capacity set misbehaves")
	}
	neg := NewBitSet(-3)
	if neg.Cap() != 0 {
		t.Error("negative capacity not clamped")
	}
}

func TestBitSetMembersSorted(t *testing.T) {
	b := NewBitSet(100)
	for _, id := range []ProcessID{42, 7, 99, 0, 13} {
		b.Add(id)
	}
	m := b.Members()
	want := []ProcessID{0, 7, 13, 42, 99}
	if len(m) != len(want) {
		t.Fatalf("got %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("members not sorted: got %v", m)
		}
	}
}

func TestBitSetCloneEqual(t *testing.T) {
	b := NewBitSet(10)
	b.Add(3)
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Add(4)
	if b.Equal(c) {
		t.Fatal("mutating clone affected equality")
	}
	if b.Has(4) {
		t.Fatal("clone aliases original")
	}
	d := NewBitSet(11)
	d.Add(3)
	if b.Equal(d) {
		t.Error("different capacity considered equal")
	}
}

func TestBitSetRoundTripWords(t *testing.T) {
	b := NewBitSet(67)
	b.Add(0)
	b.Add(66)
	got, err := BitSetFromWords(67, b.Words())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(b) {
		t.Error("words round trip lost members")
	}
}

func TestBitSetFromWordsValidation(t *testing.T) {
	if _, err := BitSetFromWords(10, []uint64{1, 2}); err == nil {
		t.Error("wrong word count accepted")
	}
	if _, err := BitSetFromWords(-1, nil); err == nil {
		t.Error("negative capacity accepted")
	}
	// Stray bit beyond n must be rejected (keeps encodings canonical).
	if _, err := BitSetFromWords(10, []uint64{1 << 12}); err == nil {
		t.Error("stray high bit accepted")
	}
}

func TestBitSetString(t *testing.T) {
	b := NewBitSet(5)
	b.Add(1)
	b.Add(3)
	if got := b.String(); got != "{p1,p3}" {
		t.Errorf("String = %q", got)
	}
}

// Property: membership after a sequence of adds matches a reference map.
func TestBitSetQuickAgainstMap(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%150) + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewBitSet(n)
		ref := map[ProcessID]bool{}
		for i := 0; i < 200; i++ {
			id := ProcessID(rng.Intn(n))
			b.Add(id)
			ref[id] = true
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Has(ProcessID(i)) != ref[ProcessID(i)] {
				return false
			}
		}
		rt, err := BitSetFromWords(n, b.Words())
		return err == nil && rt.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
