// Package sig provides the trusted-PKI signature abstraction the paper
// assumes (Section 2). A Scheme is created by a trusted setup for a fixed
// set of n processes; ⟨m⟩_p in the paper corresponds to Sign(p, m).
//
// Two interchangeable implementations are provided:
//
//   - Ed25519Ring: real asymmetric signatures from crypto/ed25519. Use for
//     the TCP runtime and whenever genuine unforgeability matters.
//   - HMACRing: HMAC-SHA256 tags with per-process keys. Verification needs
//     the signing key, so the ring object itself is the trusted party; it
//     models the paper's "ideal" scheme and is an order of magnitude faster,
//     which matters for large simulated sweeps. Like the ideal
//     functionality, it answers a check of a signature it made lately from
//     its record of what was signed, and MACs only the rest. Honest
//     processes only sign through a Signer bound to their own identity.
package sig

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"adaptiveba/internal/crypto/keyedmac"
	"adaptiveba/internal/types"
)

// Signature is an opaque signature or MAC tag.
type Signature []byte

// Clone returns an independent copy.
func (s Signature) Clone() Signature {
	if s == nil {
		return nil
	}
	c := make(Signature, len(s))
	copy(c, s)
	return c
}

// Scheme signs and verifies on behalf of the n processes of one run.
type Scheme interface {
	// Name identifies the implementation ("ed25519" or "hmac").
	Name() string
	// N returns the number of identities in the ring.
	N() int
	// Sign produces signer's signature on msg.
	Sign(signer types.ProcessID, msg []byte) (Signature, error)
	// Verify reports whether s is signer's valid signature on msg.
	Verify(signer types.ProcessID, msg []byte, s Signature) bool
	// SignatureSize is the byte length of signatures (for wire sizing).
	SignatureSize() int
}

// CheapVerify reports whether s declares its Verify no more expensive than
// hashing the bytes it is given — a byte compare against a sign record, or
// at worst one MAC — which is what a content-addressed memo of
// verification results (internal/crypto/verifycache) must do before it can
// even look a result up. Such a scheme is verified directly every time; any
// other scheme — a public-key one, or one that does not say — is worth
// memoizing. The scheme decides, not its user: a decorator answers for the
// scheme it wraps.
func CheapVerify(s Scheme) bool {
	c, ok := s.(interface{ CheapVerify() bool })
	return ok && c.CheapVerify()
}

// Errors returned by schemes.
var (
	ErrUnknownSigner = errors.New("sig: signer id out of range")
)

// Ed25519Ring is a PKI of n real Ed25519 key pairs.
type Ed25519Ring struct {
	priv []ed25519.PrivateKey
	pub  []ed25519.PublicKey
}

var _ Scheme = (*Ed25519Ring)(nil)

// NewEd25519Ring generates n key pairs from the given randomness source.
func NewEd25519Ring(n int, rand io.Reader) (*Ed25519Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sig: invalid ring size %d", n)
	}
	r := &Ed25519Ring{
		priv: make([]ed25519.PrivateKey, n),
		pub:  make([]ed25519.PublicKey, n),
	}
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(rand)
		if err != nil {
			return nil, fmt.Errorf("sig: generate key %d: %w", i, err)
		}
		r.pub[i], r.priv[i] = pub, priv
	}
	return r, nil
}

// Name implements Scheme.
func (r *Ed25519Ring) Name() string { return "ed25519" }

// N implements Scheme.
func (r *Ed25519Ring) N() int { return len(r.priv) }

// SignatureSize implements Scheme.
func (r *Ed25519Ring) SignatureSize() int { return ed25519.SignatureSize }

// Sign implements Scheme.
func (r *Ed25519Ring) Sign(signer types.ProcessID, msg []byte) (Signature, error) {
	if signer < 0 || int(signer) >= len(r.priv) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSigner, signer)
	}
	return ed25519.Sign(r.priv[signer], msg), nil
}

// Verify implements Scheme.
func (r *Ed25519Ring) Verify(signer types.ProcessID, msg []byte, s Signature) bool {
	if signer < 0 || int(signer) >= len(r.pub) {
		return false
	}
	return ed25519.Verify(r.pub[signer], msg, s)
}

// HMACRing is a symmetric "ideal signature" functionality: per-process
// HMAC-SHA256 keys derived from a master seed. Fast and deterministic;
// unforgeable only against parties that use the ring through its API.
//
// Each identity's keyed MAC states are owned by the ring (one
// keyedmac.Pool per identity) and reused across calls, so Sign allocates
// only the tag it returns and Verify allocates nothing. The pool also
// keeps the identity's sign record: the last keyedmac.RecordEntries
// messages it signed, copied, with their MACs. Verify answers a signature
// that matches one of them byte for byte — signer, whole message and
// whole tag — with that compare, and computes the MAC for any other; the
// answer is the same either way. The record's slab is allocated on an
// identity's first Sign.
type HMACRing struct {
	macs []keyedmac.Pool
}

var _ Scheme = (*HMACRing)(nil)

// hmacTagSize is the truncated tag length; 16 bytes keeps messages small
// while leaving forgery probability negligible for simulation purposes.
const hmacTagSize = 16

// NewHMACRing derives n keys from seed.
func NewHMACRing(n int, seed []byte) (*HMACRing, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sig: invalid ring size %d", n)
	}
	r := &HMACRing{macs: make([]keyedmac.Pool, n)}
	for i := 0; i < n; i++ {
		mac := hmac.New(sha256.New, seed)
		var idb [8]byte
		binary.BigEndian.PutUint64(idb[:], uint64(i))
		mac.Write([]byte("adaptiveba/keyderive"))
		mac.Write(idb[:])
		r.macs[i].Init(mac.Sum(nil))
	}
	return r, nil
}

// Name implements Scheme.
func (r *HMACRing) Name() string { return "hmac" }

// N implements Scheme.
func (r *HMACRing) N() int { return len(r.macs) }

// SignatureSize implements Scheme.
func (r *HMACRing) SignatureSize() int { return hmacTagSize }

// CheapVerify marks the ring's verification as a compare against its sign
// record or, failing that, one pooled, allocation-free HMAC over the
// message — at most the same order of work as the SHA-256 a
// verification-cache key costs, so memoizing it can only add to it.
func (r *HMACRing) CheapVerify() bool { return true }

// ringMACs counts the HMACs computed by every HMACRing in the process;
// see RingMACs.
var ringMACs atomic.Uint64

// RingMACs returns the number of HMACs every HMACRing in the process has
// computed so far: one per Sign, plus one per Verify its sign record did
// not answer. Tests pin a run's cryptographic work with the difference
// across it.
func RingMACs() uint64 { return ringMACs.Load() }

// Sign implements Scheme. The tag has exactly hmacTagSize capacity.
func (r *HMACRing) Sign(signer types.ProcessID, msg []byte) (Signature, error) {
	if signer < 0 || int(signer) >= len(r.macs) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSigner, signer)
	}
	ringMACs.Add(1)
	return r.macs[signer].Sign(msg, hmacTagSize), nil
}

// Verify implements Scheme: from the signer's sign record when it holds
// (msg, s), by MAC otherwise.
func (r *HMACRing) Verify(signer types.ProcessID, msg []byte, s Signature) bool {
	if signer < 0 || int(signer) >= len(r.macs) {
		return false
	}
	ok, mac := r.macs[signer].Check(msg, s, hmacTagSize)
	if mac {
		ringMACs.Add(1)
	}
	return ok
}

// Signer is a capability binding one identity to a scheme. Honest protocol
// code receives a Signer (not the full Scheme) so it can only sign as
// itself; the adversary receives Signers for every corrupted identity.
type Signer struct {
	scheme Scheme
	id     types.ProcessID
}

// NewSigner binds id to scheme.
func NewSigner(scheme Scheme, id types.ProcessID) *Signer {
	return &Signer{scheme: scheme, id: id}
}

// ID returns the bound identity.
func (s *Signer) ID() types.ProcessID { return s.id }

// Sign signs msg as the bound identity.
func (s *Signer) Sign(msg []byte) (Signature, error) {
	return s.scheme.Sign(s.id, msg)
}
