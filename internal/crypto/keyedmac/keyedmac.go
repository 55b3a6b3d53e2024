// Package keyedmac provides reusable HMAC-SHA256 states for one key: the
// MAC kernel under sig.HMACRing (one pool per identity, through Sign and
// Check) and the compact threshold dealer (one pool per scheme, through
// Get and Put).
//
// hmac.New costs five allocations and two SHA-256 compressions of key
// padding before the first message byte is hashed. A State pays that once:
// after a tag is taken the state is Reset, which restores the saved
// post-padding digests, so every later MAC hashes only the message and
// allocates nothing. The digest buffer lives inside the State because a
// slice passed to hash.Hash.Sum escapes through the interface — a
// caller-side array would be heap-allocated on every call.
//
// A Pool also keeps a sign record: Sign copies each message it MACs, and
// the full MAC, into a fixed slab of RecordEntries slots, and Check
// answers a (message, tag) pair that matches a slot byte for byte without
// a MAC. The answer is the one the MAC would give, since the slot holds
// that MAC; any other pair is MACed. The slab, 1 360 bytes (a 1 408-byte
// allocation), is allocated on the pool's first Sign and then overwritten
// in place, oldest first; a pool that never signs has none.
//
// Ownership: a Pool belongs to the ring or scheme that holds the key and
// dies with it. Keyed state never enters a package-level pool, so no key
// material outlives its owner and two owners never share a state or a
// record.
package keyedmac

import (
	"bytes"
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
// built on demand, so a pool nobody MACs with costs only its struct. One
// lock guards both the free States and the sign record.
type Pool struct {
	key  []byte
	mu   sync.Mutex
	free []*State
	rec  *record // nil until the first Sign
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

// Sign MACs msg and returns the first n bytes of the MAC (n <= Size) in a
// fresh slice of exactly that capacity, as Tag does. A msg of at most
// RecordMsgCap bytes is copied into the sign record with its full MAC, in
// the slot written longest ago, so that Check can answer for it.
func (p *Pool) Sign(msg []byte, n int) []byte {
	s := p.Get()
	s.Write(msg)
	tag := s.Tag(n) // leaves the full MAC in s.sum
	p.mu.Lock()
	if len(msg) <= RecordMsgCap {
		if p.rec == nil {
			p.rec = new(record)
		}
		p.rec.add(msg, &s.sum)
	}
	p.free = append(p.free, s)
	p.mu.Unlock()
	return tag
}

// Check reports whether tag is the first n bytes of msg's MAC (n <= Size).
// When the sign record holds msg and a MAC whose first n bytes are tag,
// the record answers and mac is false; otherwise the MAC is computed and
// mac is true. ok is the same either way.
func (p *Pool) Check(msg, tag []byte, n int) (ok, mac bool) {
	p.mu.Lock()
	hit := p.rec.has(msg, tag, n)
	p.mu.Unlock()
	if hit {
		return true, false
	}
	s := p.Get()
	s.Write(msg)
	ok = s.Equal(tag, n)
	p.Put(s)
	return ok, true
}

// The sign record's shape: RecordEntries slots of one message of at most
// RecordMsgCap bytes and its full MAC each. n = 4 sign bases are 45 to
// 89 bytes, and each process checks the others' within a tick or two of
// their Sign; at n = 9 a process signs about 64 messages a tick, more
// than the record keeps, and the older ones are MACed again.
const (
	RecordEntries = 8
	RecordMsgCap  = 128
)

// record is a pool's sign record (see the package comment).
type record struct {
	next, filled int
	slot         [RecordEntries]struct {
		len int
		msg [RecordMsgCap]byte
		sum [Size]byte
	}
}

// add overwrites the oldest slot with msg and its MAC sum.
func (r *record) add(msg []byte, sum *[Size]byte) {
	e := &r.slot[r.next]
	e.len = copy(e.msg[:], msg)
	e.sum = *sum
	r.next = (r.next + 1) % RecordEntries
	r.filled = min(r.filled+1, RecordEntries)
}

// has reports whether a slot holds msg with a MAC whose first n bytes are
// tag, newest slot first. The tag is compared in constant time. A nil
// record holds nothing.
func (r *record) has(msg, tag []byte, n int) bool {
	if r == nil {
		return false
	}
	for k := 1; k <= r.filled; k++ {
		e := &r.slot[(r.next-k+RecordEntries)%RecordEntries]
		if e.len == len(msg) && bytes.Equal(e.msg[:e.len], msg) && hmac.Equal(e.sum[:n], tag) {
			return true
		}
	}
	return false
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
