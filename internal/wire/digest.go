package wire

import (
	"bytes"
	"crypto/sha256"
)

// Digest is the SHA-256 of a value. A sign base that covers an
// arbitrary-length value carries the value's digest in its place
// (hash-then-sign), so the base — and every signature, share, combine and
// verify over it — costs the same whatever the value's length. The
// binding rests on SHA-256's collision resistance.
type Digest [sha256.Size]byte

// Sum returns the digest of v.
func Sum(v []byte) Digest { return sha256.Sum256(v) }

// ValueBase encodes the sign base (domain, tag, n, d) in one exact-size
// allocation: n is what the base binds besides the value (a phase, or the
// signer), d the value's digest.
func ValueBase(domain, tag string, n int, d Digest) []byte {
	w := NewWriterSize(SizeBytes(len(domain)) + SizeBytes(len(tag)) + SizeInt + SizeBytes(len(d)))
	w.PutString(domain)
	w.PutString(tag)
	w.PutInt(n)
	w.PutBytes(d[:])
	return w.Bytes()
}

// Digester hashes the values one machine signs and verifies. A machine
// sees one value many times in a row — the n shares one ingest pass
// checks, the certificate combined from them and the certificate every
// process then verifies all cover it — so the digester keeps its own copy
// of the last value it hashed and that value's digest, and a repeat costs
// a comparison. The copy being its own, a caller that later changes the
// bytes it passed (payload slices are shared by reference between a
// sender and all its recipients) gets a miss, never a stale digest. Not
// safe for concurrent use (a machine is single-threaded).
type Digester struct {
	v  []byte
	d  Digest
	ok bool
}

// Sum returns the digest of v, hashing only when v differs from the
// previous call's (nil and empty values hash alike and compare alike).
func (h *Digester) Sum(v []byte) Digest {
	if !h.ok || !bytes.Equal(h.v, v) {
		h.v, h.d, h.ok = append(h.v[:0], v...), sha256.Sum256(v), true
	}
	return h.d
}

// BaseMemo remembers the last ValueBase one machine encoded under one
// (domain, tag). Its key, (n, digest), is 40 bytes whatever the value's
// length, so a hit compares and copies no value bytes. The returned slice
// is shared: callers sign, verify or hash it and must not modify or append
// to it. Not safe for concurrent use.
type BaseMemo struct {
	n   int
	d   Digest
	enc []byte
}

// Get returns ValueBase(domain, tag, n, d), encoding only when (n, d)
// differ from the previous call's. Every call on one memo passes the same
// domain and tag.
func (m *BaseMemo) Get(domain, tag string, n int, d Digest) []byte {
	if m.enc == nil || m.n != n || m.d != d {
		m.n, m.d, m.enc = n, d, ValueBase(domain, tag, n, d)
	}
	return m.enc
}
