// Package keyedmac provides reusable HMAC-SHA256 states for one key: the
// MAC kernel under sig.HMACRing (one pool per identity) and the compact
// threshold dealer (one pool per scheme).
//
// hmac.New costs five allocations and two SHA-256 compressions of key
// padding before the first message byte is hashed. A State pays that once:
// after a tag is taken the state is Reset, which restores the saved
// post-padding digests, so every later MAC hashes only the message and
// allocates nothing. The digest buffer lives inside the State because a
// slice passed to hash.Hash.Sum escapes through the interface — a
// caller-side array would be heap-allocated on every call.
//
// Ownership: a Pool belongs to the ring or scheme that holds the key and
// dies with it. Keyed state never enters a package-level pool, so no key
// material outlives its owner and two owners never share a state.
package keyedmac

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
)

// Size is the untruncated tag length.
const Size = sha256.Size

// Pool hands out States keyed with one key. The zero Pool holds the empty
// key; use Init to key it. A Pool is safe for concurrent use; States are
// built on demand, so a pool nobody MACs with costs only its struct.
type Pool struct {
	key  []byte
	mu   sync.Mutex
	free []*State
}

// Init keys the pool. It must be called before the first Get.
func (p *Pool) Init(key []byte) { p.key = key }

// Get returns a State ready for Write; hand it back with Put once its tag
// has been taken. At most one State per concurrent user is ever built.
func (p *Pool) Get() *State {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return &State{mac: hmac.New(sha256.New, p.key)}
}

// Put returns s to the pool. s must have been finished with Tag or Equal
// (which leave it Reset) and must not be used afterwards.
func (p *Pool) Put(s *State) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// State is one keyed HMAC-SHA256 computation in progress.
type State struct {
	mac hash.Hash
	sum [Size]byte // digest buffer; see the package comment
	num [8]byte    // integer scratch, here for the same reason
}

// Write appends b to the MAC input.
func (s *State) Write(b []byte) { s.mac.Write(b) }

// WriteUint64 appends v as 8 big-endian bytes.
func (s *State) WriteUint64(v uint64) {
	binary.BigEndian.PutUint64(s.num[:], v)
	s.mac.Write(s.num[:])
}

// finish computes the MAC into s.sum and restores the keyed start state.
func (s *State) finish() {
	s.mac.Sum(s.sum[:0])
	s.mac.Reset()
}

// Tag finishes the MAC and returns its first n bytes (n <= Size) in a
// fresh slice of exactly that capacity: nothing of the untruncated MAC
// hides behind the tag, and appending to it cannot write into the state.
func (s *State) Tag(n int) []byte {
	tag := make([]byte, n)
	s.TagTo(tag)
	return tag
}

// TagTo finishes the MAC and writes its first len(dst) bytes (len(dst) <=
// Size) into dst: Tag for a caller that lays the tag out in a buffer of
// its own.
func (s *State) TagTo(dst []byte) {
	s.finish()
	copy(dst, s.sum[:len(dst)])
}

// Equal finishes the MAC and reports, in constant time and without
// copying, whether its first n bytes equal tag.
func (s *State) Equal(tag []byte, n int) bool {
	s.finish()
	return hmac.Equal(s.sum[:n], tag)
}
