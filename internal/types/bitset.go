package types

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitSet is a fixed-capacity set of ProcessIDs, used to record the signer
// sets of threshold certificates compactly and deterministically.
type BitSet struct {
	n     int
	words []uint64
}

// NewBitSet returns an empty set with capacity for IDs in [0, n).
func NewBitSet(n int) *BitSet {
	if n < 0 {
		n = 0
	}
	return &BitSet{n: n, words: make([]uint64, (n+63)/64)}
}

// BitSetFromWords reconstructs a set from its raw word representation,
// as produced by Words. It is used by the wire codec.
func BitSetFromWords(n int, words []uint64) (*BitSet, error) {
	want := (n + 63) / 64
	if n < 0 || len(words) != want {
		return nil, fmt.Errorf("bitset: got %d words for n=%d, want %d", len(words), n, want)
	}
	// Reject stray bits beyond n so equal sets have equal encodings.
	if rem := n % 64; rem != 0 && want > 0 {
		if words[want-1]&^(uint64(1)<<rem-1) != 0 {
			return nil, fmt.Errorf("bitset: bits set beyond capacity %d", n)
		}
	}
	b := &BitSet{n: n, words: make([]uint64, want)}
	copy(b.words, words)
	return b, nil
}

// Cap returns the capacity n.
func (b *BitSet) Cap() int { return b.n }

// Words exposes a copy of the raw representation for encoding.
func (b *BitSet) Words() []uint64 {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return w
}

// NumWords returns the number of raw 64-bit words.
func (b *BitSet) NumWords() int { return len(b.words) }

// Word returns raw word i without copying; pair with NumWords on
// allocation-sensitive encoding paths.
func (b *BitSet) Word(i int) uint64 { return b.words[i] }

// Add inserts id into the set. Out-of-range IDs are ignored and reported.
func (b *BitSet) Add(id ProcessID) bool {
	if id < 0 || int(id) >= b.n {
		return false
	}
	b.words[id/64] |= 1 << (uint(id) % 64)
	return true
}

// Has reports membership.
func (b *BitSet) Has(id ProcessID) bool {
	if id < 0 || int(id) >= b.n {
		return false
	}
	return b.words[id/64]&(1<<(uint(id)%64)) != 0
}

// Remove deletes id from the set. Out-of-range IDs are ignored.
func (b *BitSet) Remove(id ProcessID) {
	if id < 0 || int(id) >= b.n {
		return
	}
	b.words[id/64] &^= 1 << (uint(id) % 64)
}

// Reset empties the set in place, keeping its capacity.
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of members.
func (b *BitSet) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ContainsAll reports whether every member of o is also in b (o ⊆ b).
func (b *BitSet) ContainsAll(o *BitSet) bool {
	if o == nil {
		return true
	}
	for i, w := range o.words {
		if i < len(b.words) {
			if w&^b.words[i] != 0 {
				return false
			}
		} else if w != 0 {
			return false
		}
	}
	return true
}

// NextSet returns the smallest member >= from, or (NilProcess, false) if
// there is none. Iterate a set allocation-free with
//
//	for id, ok := b.NextSet(0); ok; id, ok = b.NextSet(int(id) + 1) { ... }
func (b *BitSet) NextSet(from int) (ProcessID, bool) {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return NilProcess, false
	}
	w := from / 64
	cur := b.words[w] & (^uint64(0) << (uint(from) % 64))
	for {
		if cur != 0 {
			id := ProcessID(w*64 + bits.TrailingZeros64(cur))
			if int(id) >= b.n {
				return NilProcess, false
			}
			return id, true
		}
		w++
		if w >= len(b.words) {
			return NilProcess, false
		}
		cur = b.words[w]
	}
}

// Members lists the member IDs in ascending order.
func (b *BitSet) Members() []ProcessID {
	out := make([]ProcessID, 0, b.Count())
	for id, ok := b.NextSet(0); ok; id, ok = b.NextSet(int(id) + 1) {
		out = append(out, id)
	}
	return out
}

// Clone returns an independent copy.
func (b *BitSet) Clone() *BitSet {
	c := NewBitSet(b.n)
	copy(c.words, b.words)
	return c
}

// Equal reports whether two sets have identical capacity and members.
func (b *BitSet) Equal(o *BitSet) bool {
	if b == nil || o == nil {
		return b == o
	}
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the set as {p0,p3,...}.
func (b *BitSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, id := range b.Members() {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(id.String())
	}
	sb.WriteByte('}')
	return sb.String()
}
