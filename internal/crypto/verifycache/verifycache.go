// Package verifycache is the verification fast path shared by every
// machine of a run: a content-addressed memoization table for signature
// and certificate checks. In a simulated run all honest processes share
// one trusted setup (proto.Crypto), yet each of the n processes
// independently re-verifies the identical signatures and threshold
// certificates — O(n²) redundant public-key operations per round. Since
// verification is a deterministic pure function of (signer, message,
// signature bytes), its result can be cached under a key that commits to
// that entire triple.
//
// A lookup costs a SHA-256 of that triple plus a lock and a map probe, so
// it only pays for verifications dearer than that: public-key signatures
// and aggregate certificates. A scheme whose verification is at most one
// keyed hash (sig.CheapVerify — the HMAC ring, which answers its own
// recent signatures by compare from its sign record and MACs the rest) is
// not wrapped by proto.NewCrypto, for the reason compact certificates are
// not memoized by the threshold package: they are answered from their
// mint record, or by one dealer MAC.
//
// Forgery safety: a cache key is the SHA-256 of a domain-separated,
// length-prefixed serialization of the signer identity, the full message,
// and the full signature (or certificate) bytes. A cached positive can
// therefore never be served for a signature that differs in even one bit
// from the one that actually verified; negative results are equally
// cacheable because verification is deterministic. The cache changes CPU
// cost only — never message contents, word counts, or protocol decisions.
//
// Concurrency: a simulation verifies on its one goroutine; runs that
// share a suite (an engine run's session groups) or a TCP node's
// connections may look up at once. Lookups take a read lock and a miss
// computes on its caller's goroutine, then stores under the write lock:
// two concurrent misses on one key both compute the same answer. Memory
// is bounded by a two-generation table (at most Capacity entries live at
// once); the cache lives as long as its suite.
package verifycache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"sync/atomic"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/types"
)

// Key is a content-addressed verification-cache key: a SHA-256 hash
// committing to the verification domain, the signer, the full message,
// and the full signature/certificate bytes.
type Key [sha256.Size]byte

// Hasher incrementally builds a Key from length-prefixed fields, so
// callers (e.g. the threshold package for certificates) can commit to
// structured inputs without ambiguity.
//
// Hashers are recycled through a package-level pool — they hold an
// unkeyed SHA-256 state and nothing of any run — and carry their own
// integer scratch and digest buffer, so computing a Key leaves no heap
// garbage: a slice handed to hash.Hash escapes through the interface, and
// a caller-side array would be heap-allocated on every call.
type Hasher struct {
	h   hash.Hash
	buf [8]byte
	sum Key
}

var hasherPool = sync.Pool{
	New: func() any { return &Hasher{h: sha256.New()} },
}

// NewHasher starts a Key computation under the given domain-separation
// tag. Distinct domains ("sig", "cert") can never collide. The Hasher is
// released by Sum.
func NewHasher(domain string) *Hasher {
	h := hasherPool.Get().(*Hasher)
	h.h.Reset()
	h.Uint64(uint64(len(domain)))
	for len(domain) > 0 { // through the scratch: []byte(domain) would escape
		n := copy(h.buf[:], domain)
		h.h.Write(h.buf[:n])
		domain = domain[n:]
	}
	return h
}

// Uint64 appends a fixed-width integer field.
func (h *Hasher) Uint64(v uint64) {
	binary.BigEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

// Bytes appends a length-prefixed byte field. The prefix makes the
// serialization injective: ("ab","c") and ("a","bc") hash differently.
func (h *Hasher) Bytes(b []byte) {
	h.Uint64(uint64(len(b)))
	h.h.Write(b)
}

// Sum finalizes the key and releases the Hasher, which must not be used
// afterwards.
func (h *Hasher) Sum() Key {
	h.h.Sum(h.sum[:0])
	k := h.sum
	hasherPool.Put(h)
	return k
}

// SigKey is the cache key for an individual signature verification.
func SigKey(signer types.ProcessID, msg []byte, s sig.Signature) Key {
	h := NewHasher("sig")
	h.Uint64(uint64(signer))
	h.Bytes(msg)
	h.Bytes(s)
	return h.Sum()
}

// DefaultCapacity bounds a cache created with capacity <= 0. At ~33 bytes
// per entry the worst case is a few MB per run.
const DefaultCapacity = 1 << 16

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits      int64 // lookups answered from the table
	Misses    int64 // lookups that computed the verification
	Evictions int64 // entries dropped by generation rotation
	Entries   int64 // entries currently resident
}

// Cache memoizes boolean verification results under content-addressed
// keys. The zero of *Cache (nil) is valid and disables caching: Do
// computes directly. Cache is safe for concurrent use.
type Cache struct {
	half int // per-generation entry bound (capacity / 2)

	mu   sync.RWMutex
	cur  map[Key]bool
	prev map[Key]bool

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// New creates a cache holding at most capacity entries (DefaultCapacity
// if capacity <= 0). Eviction is two-generation: when the current
// generation fills half the capacity, the previous generation is dropped
// wholesale — O(1) bookkeeping per insert, strict memory bound.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	half := capacity / 2
	if half < 1 {
		half = 1
	}
	return &Cache{half: half, cur: make(map[Key]bool)}
}

// lookupLocked checks both generations. Callers hold c.mu for reading.
func (c *Cache) lookupLocked(k Key) (v, ok bool) {
	if v, ok = c.cur[k]; ok {
		return v, true
	}
	v, ok = c.prev[k]
	return v, ok
}

// storeLocked inserts a result, rotating generations at the bound.
// Callers hold c.mu for writing.
func (c *Cache) storeLocked(k Key, v bool) {
	if len(c.cur) >= c.half {
		c.evictions.Add(int64(len(c.prev)))
		c.prev = c.cur
		c.cur = make(map[Key]bool, c.half)
	}
	c.cur[k] = v
}

// Do returns the memoized verification result for k, or calls compute
// and stores its result. A nil cache computes directly. Every call counts
// as one hit or one miss.
func (c *Cache) Do(k Key, compute func() bool) bool {
	if c == nil {
		return compute()
	}
	c.mu.RLock()
	v, ok := c.lookupLocked(k)
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	v = compute()
	c.mu.Lock()
	c.storeLocked(k, v)
	c.mu.Unlock()
	return v
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.RLock()
	entries := int64(len(c.cur) + len(c.prev))
	c.mu.RUnlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

// Scheme decorates a sig.Scheme with the cache, in the style of
// sig.Counting: Verify is memoized, Sign passes through.
type Scheme struct {
	inner sig.Scheme
	cache *Cache
}

var _ sig.Scheme = (*Scheme)(nil)

// WrapScheme returns inner with Verify memoized through cache. A nil
// cache returns inner unchanged.
func WrapScheme(inner sig.Scheme, cache *Cache) sig.Scheme {
	if cache == nil {
		return inner
	}
	return &Scheme{inner: inner, cache: cache}
}

// Name implements sig.Scheme.
func (s *Scheme) Name() string { return s.inner.Name() + "+cache" }

// N implements sig.Scheme.
func (s *Scheme) N() int { return s.inner.N() }

// SignatureSize implements sig.Scheme.
func (s *Scheme) SignatureSize() int { return s.inner.SignatureSize() }

// Sign implements sig.Scheme (pass-through; signing is never cached).
func (s *Scheme) Sign(signer types.ProcessID, msg []byte) (sig.Signature, error) {
	return s.inner.Sign(signer, msg)
}

// Verify implements sig.Scheme with memoization.
func (s *Scheme) Verify(signer types.ProcessID, msg []byte, sg sig.Signature) bool {
	return s.cache.Do(SigKey(signer, msg, sg), func() bool {
		return s.inner.Verify(signer, msg, sg)
	})
}

// Unwrap returns the underlying scheme.
func (s *Scheme) Unwrap() sig.Scheme { return s.inner }

// Cache returns the backing cache (for stats).
func (s *Scheme) Cache() *Cache { return s.cache }
