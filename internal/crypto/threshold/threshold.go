// Package threshold implements the (k, n)-threshold signature abstraction
// from Section 2 of the paper: k unique signatures on the same message can
// be batched into a certificate "with the same length as an individual
// signature", i.e. a certificate costs one word.
//
// The paper assumes an ideal scheme (BLS-style threshold signatures); the
// Go standard library has no pairing crypto, so two encodings are offered
// with identical word accounting:
//
//   - ModeAggregate: the certificate physically carries the k component
//     signatures. Verification checks each against the base scheme. Fully
//     trustless, larger on the wire.
//   - ModeCompact: a trusted dealer (part of the same trusted setup that
//     distributes keys) condenses k verified shares into a constant-size
//     HMAC tag over (message, signer set). This matches the paper's ideal-
//     functionality abstraction and the constant byte size of real
//     threshold signatures.
//
// Both encodings count as exactly one word (Cert.Words), so every
// complexity measurement in this repository is encoding-independent.
//
// Every certificate is minted by a Collector: its Add verifies a share
// once, when it arrives, and its Cert mints from exactly the shares Add
// accepted, without verifying them again. Scheme.Combine is a loop over a
// Collector for callers holding a list of unchecked shares.
//
// A compact certificate is verified once per scheme, at its mint: Cert
// records on the certificate private copies of exactly the inputs its tag
// covers, and Scheme.Verify answers from that record, without a MAC, when
// the same scheme is asked about the same message, signer words and tag
// byte for byte. The MAC is a deterministic function of those inputs and
// the scheme's key, so the answer is the one the MAC would give. Anything
// else — another message, another signer set or tag, another scheme, a
// certificate decoded from the wire — computes the MAC.
package threshold

import (
	"bytes"
	"cmp"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"adaptiveba/internal/crypto/keyedmac"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/verifycache"
	"adaptiveba/internal/types"
)

// Mode selects the certificate encoding.
type Mode int

// Certificate encodings.
const (
	ModeAggregate Mode = iota + 1
	ModeCompact
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeAggregate:
		return "aggregate"
	case ModeCompact:
		return "compact"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode is the inverse of String for the two encodings.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "compact":
		return ModeCompact, nil
	case "aggregate":
		return ModeAggregate, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (compact | aggregate)", s)
	}
}

// Errors returned by the scheme.
var (
	ErrTooFewShares = errors.New("threshold: not enough valid unique shares")
	ErrBadShare     = errors.New("threshold: invalid share")
	ErrBadParams    = errors.New("threshold: invalid parameters")
	ErrBadCert      = errors.New("threshold: malformed certificate")
)

// Share is one process's contribution towards a certificate: its ordinary
// signature on the message.
type Share struct {
	Signer types.ProcessID
	Sig    sig.Signature
}

// Cert is a (k, n)-threshold certificate: proof that at least K distinct
// processes signed Msg. Exactly one of Shares/Tag is populated, depending
// on the scheme's mode.
type Cert struct {
	K       int
	Signers *types.BitSet
	// Shares holds the component signatures ordered by ascending signer ID
	// (aggregate mode only).
	Shares []sig.Signature
	// Tag is the dealer's constant-size tag (compact mode only).
	Tag []byte

	// minter and minted are the record a compact mint leaves (nil on a
	// certificate built any other way): the minting scheme, and private
	// copies of the tag, the signer words and the message its dealer tag
	// covers, laid out in that order in the buffer Tag is sliced from.
	// See Scheme.Verify.
	minter *Scheme
	minted []byte
}

// Words returns the certificate's cost in the paper's model: one word.
func (c *Cert) Words() int { return 1 }

// Count returns the number of distinct signers backing the certificate.
func (c *Cert) Count() int {
	if c == nil || c.Signers == nil {
		return 0
	}
	return c.Signers.Count()
}

// Bytes estimates the certificate's wire size.
func (c *Cert) Bytes() int {
	if c == nil {
		return 0
	}
	n := 8 + c.Signers.NumWords()*8 + len(c.Tag)
	for _, s := range c.Shares {
		n += len(s)
	}
	return n
}

// Clone returns a deep copy. The copy carries no mint record: Verify
// checks it with a MAC.
func (c *Cert) Clone() *Cert {
	if c == nil {
		return nil
	}
	out := &Cert{K: c.K, Signers: c.Signers.Clone()}
	if c.Tag != nil {
		out.Tag = append([]byte(nil), c.Tag...)
	}
	if c.Shares != nil {
		out.Shares = make([]sig.Signature, len(c.Shares))
		for i, s := range c.Shares {
			out.Shares[i] = s.Clone()
		}
	}
	return out
}

// Scheme batches and verifies threshold certificates at one fixed
// threshold K over a base signature scheme. It is safe for concurrent
// use, and every check runs on its caller's goroutine.
type Scheme struct {
	n      int
	k      int
	mode   Mode
	base   sig.Scheme
	dealer keyedmac.Pool // compact mode only: reusable states keyed with the dealer key

	// cache is the optional content-addressed memo for whole-certificate
	// checks (see internal/crypto/verifycache).
	cache *verifycache.Cache
}

// Option configures optional Scheme behavior at construction.
type Option func(*Scheme)

// WithVerifyCache memoizes aggregate-certificate verification results in
// c, keyed by the full (mode, k, n, message, signer set, share bytes)
// content. Compact certificates are not cached: their verification is a
// single HMAC, no more expensive than the key hash itself.
func WithVerifyCache(c *verifycache.Cache) Option {
	return func(s *Scheme) { s.cache = c }
}

// New creates a (k, n)-threshold scheme over base. For ModeCompact,
// dealerSeed keys the trusted dealer; same seed, same dealer.
func New(base sig.Scheme, k int, mode Mode, dealerSeed []byte, opts ...Option) (*Scheme, error) {
	if base == nil {
		return nil, fmt.Errorf("%w: nil base scheme", ErrBadParams)
	}
	n := base.N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrBadParams, k, n)
	}
	s := &Scheme{n: n, k: k, mode: mode, base: base}
	switch mode {
	case ModeAggregate:
	case ModeCompact:
		mac := hmac.New(sha256.New, dealerSeed)
		mac.Write([]byte("adaptiveba/threshold-dealer"))
		s.dealer.Init(mac.Sum(nil))
	default:
		return nil, fmt.Errorf("%w: unknown mode %v", ErrBadParams, mode)
	}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// K returns the threshold.
func (s *Scheme) K() int { return s.k }

// N returns the ring size.
func (s *Scheme) N() int { return s.n }

// Mode returns the certificate encoding.
func (s *Scheme) Mode() Mode { return s.mode }

// SignShare produces signer's share on msg (an ordinary signature).
func (s *Scheme) SignShare(signer types.ProcessID, msg []byte) (Share, error) {
	sg, err := s.base.Sign(signer, msg)
	if err != nil {
		return Share{}, err
	}
	return Share{Signer: signer, Sig: sg}, nil
}

// VerifyShare reports whether sh is a valid share on msg.
func (s *Scheme) VerifyShare(msg []byte, sh Share) bool {
	return s.base.Verify(sh.Signer, msg, sh.Sig)
}

// Combine batches shares into a certificate: it verifies every share it
// is handed, de-duplicates by signer, and needs at least K valid unique
// shares. It is a loop over a Collector, the one way to a certificate; a
// machine that checks each share as it arrives keeps the Collector itself
// instead, so no share is verified twice.
func (s *Scheme) Combine(msg []byte, shares []Share) (*Cert, error) {
	c := s.NewCollector(msg)
	for _, sh := range shares {
		// A repeated signer is skipped; any other share Add refuses is bad.
		if !c.Add(sh) && !c.signers.Has(sh.Signer) {
			return nil, fmt.Errorf("%w: signer %v", ErrBadShare, sh.Signer)
		}
	}
	return c.Cert()
}

// Collector gathers the shares of distinct signers on one message. Add
// verifies a share once, when it is handed in, and Cert mints from
// exactly the shares Add accepted without verifying them again: nothing
// unverified is ever minted, and nothing is verified twice.
type Collector struct {
	s       *Scheme
	msg     []byte
	signers types.BitSet
	shares  []Share // aggregate mode only: the accepted shares (the certificate carries them)
}

// NewCollector returns an empty collector for shares on msg. msg is kept,
// not copied: the caller must not modify it while the collector is in use.
func (s *Scheme) NewCollector(msg []byte) *Collector {
	return &Collector{s: s, msg: msg, signers: *types.NewBitSet(s.n)}
}

// Add verifies sh on the collector's message and records its signer. It
// reports whether sh was recorded: a share from a signer outside the ring
// or already recorded is ignored without a check, and an invalid share is
// rejected.
func (c *Collector) Add(sh Share) bool {
	if sh.Signer < 0 || int(sh.Signer) >= c.s.n || c.signers.Has(sh.Signer) {
		return false
	}
	if !c.s.VerifyShare(c.msg, sh) {
		return false
	}
	c.signers.Add(sh.Signer)
	if c.s.mode == ModeAggregate {
		c.shares = append(c.shares, sh)
	}
	return true
}

// Count returns the number of distinct signers whose valid share was
// recorded.
func (c *Collector) Count() int { return c.signers.Count() }

// Cert mints a certificate over every recorded signer; it needs at least
// K of them. The certificate is the collector's snapshot: later Adds do
// not change it.
func (c *Collector) Cert() (*Cert, error) {
	s := c.s
	if have := c.signers.Count(); have < s.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, have, s.k)
	}
	cert := &Cert{K: s.k, Signers: c.signers.Clone()}
	switch s.mode {
	case ModeAggregate:
		slices.SortFunc(c.shares, func(a, b Share) int { return cmp.Compare(a.Signer, b.Signer) })
		cert.Shares = make([]sig.Signature, len(c.shares))
		for i, sh := range c.shares {
			cert.Shares[i] = sh.Sig.Clone()
		}
	case ModeCompact:
		s.mintTag(cert, c.msg)
	}
	return cert, nil
}

// mintTag sets cert.Tag to the dealer's tag over (msg, cert.Signers) and
// records on cert what the tag covers. One buffer holds both: the tag at
// capacity compactTagSize, so appending to Tag cannot reach the record,
// then the record — a tag copy, the signer words, a message copy — which
// shares no memory with Tag, Signers or msg.
func (s *Scheme) mintTag(cert *Cert, msg []byte) {
	nw := cert.Signers.NumWords()
	buf := make([]byte, 2*compactTagSize+8*nw+len(msg))
	st := s.dealerMAC(msg, cert.Signers)
	st.TagTo(buf[:compactTagSize])
	s.dealer.Put(st)
	cert.Tag = buf[:compactTagSize:compactTagSize]
	rec := buf[compactTagSize:]
	copy(rec, cert.Tag)
	for i := 0; i < nw; i++ {
		binary.LittleEndian.PutUint64(rec[compactTagSize+8*i:], cert.Signers.Word(i))
	}
	copy(rec[compactTagSize+8*nw:], msg)
	cert.minter, cert.minted = s, rec
}

// mintedBy reports whether c carries s's mint record of exactly
// (msg, c.Signers, c.Tag): then s's dealer computed c.Tag over these very
// inputs, and the MAC would accept it. The record has one reading: the
// signer word count is fixed by s's ring size, which Verify has checked.
func (c *Cert) mintedBy(s *Scheme, msg []byte) bool {
	rec := c.minted
	nw := c.Signers.NumWords()
	if c.minter != s || len(rec) < compactTagSize+8*nw {
		return false
	}
	if !bytes.Equal(rec[:compactTagSize], c.Tag) {
		return false
	}
	for i := 0; i < nw; i++ {
		if binary.LittleEndian.Uint64(rec[compactTagSize+8*i:]) != c.Signers.Word(i) {
			return false
		}
	}
	return bytes.Equal(rec[compactTagSize+8*nw:], msg)
}

// Verify reports whether cert proves that K distinct processes signed msg.
//
// A compact certificate minted by s and carrying exactly the message,
// signer words and tag s's dealer covered at the mint is accepted without
// a MAC (see the package comment); every other compact certificate is
// checked with one. The answer is the MAC's either way.
//
// With WithVerifyCache, aggregate-mode results are memoized under a key
// committing to the entire certificate content, so the n-th machine
// checking the same certificate pays a hash instead of k public-key
// operations.
func (s *Scheme) Verify(msg []byte, cert *Cert) bool {
	if cert == nil || cert.Signers == nil || cert.K != s.k || cert.Signers.Cap() != s.n {
		return false
	}
	if cert.Count() < s.k {
		return false
	}
	if s.mode == ModeCompact && cert.mintedBy(s, msg) {
		return true
	}
	if s.cache == nil || s.mode != ModeAggregate {
		return s.verifyCert(msg, cert)
	}
	return s.cache.Do(s.certKey(msg, cert), func() bool {
		return s.verifyCert(msg, cert)
	})
}

// certKey commits to the scheme parameters, the message, and the full
// certificate bytes (signer set and every share), so a cached positive
// can never be served for a certificate that differs anywhere.
func (s *Scheme) certKey(msg []byte, cert *Cert) verifycache.Key {
	h := verifycache.NewHasher("cert")
	h.Uint64(uint64(s.mode))
	h.Uint64(uint64(s.k))
	h.Uint64(uint64(s.n))
	h.Bytes(msg)
	nw := cert.Signers.NumWords()
	h.Uint64(uint64(nw))
	for i := 0; i < nw; i++ {
		h.Uint64(cert.Signers.Word(i))
	}
	h.Uint64(uint64(len(cert.Shares)))
	for _, sh := range cert.Shares {
		h.Bytes(sh)
	}
	h.Bytes(cert.Tag)
	return h.Sum()
}

// verifyCert is the uncached verification path (structural checks done).
func (s *Scheme) verifyCert(msg []byte, cert *Cert) bool {
	switch s.mode {
	case ModeAggregate:
		members := cert.Signers.Members()
		if len(cert.Shares) != len(members) {
			return false
		}
		for i, id := range members {
			if !s.base.Verify(id, msg, cert.Shares[i]) {
				return false
			}
		}
		return true
	case ModeCompact:
		st := s.dealerMAC(msg, cert.Signers)
		ok := st.Equal(cert.Tag, compactTagSize)
		s.dealer.Put(st)
		return ok
	default:
		return false
	}
}

// compactTagSize is the truncated length of the dealer's tag.
const compactTagSize = 16

// dealerMACs counts the dealer MACs computed by every scheme in the
// process, at mint and at verification; see DealerMACs.
var dealerMACs atomic.Uint64

// DealerMACs returns the number of dealer MACs every compact scheme in
// the process has computed so far, minting and verifying. Tests pin a
// run's cryptographic work with the difference across it.
func DealerMACs() uint64 { return dealerMACs.Load() }

// dealerMAC feeds (k, msg, signer set) to one of the dealer's keyed MAC
// states. The caller takes the tag (TagTo to mint, Equal to check) and
// returns the state with s.dealer.Put.
func (s *Scheme) dealerMAC(msg []byte, signers *types.BitSet) *keyedmac.State {
	dealerMACs.Add(1)
	st := s.dealer.Get()
	st.WriteUint64(uint64(s.k))
	st.WriteUint64(uint64(len(msg)))
	st.Write(msg)
	for i, n := 0, signers.NumWords(); i < n; i++ {
		st.WriteUint64(signers.Word(i))
	}
	return st
}
