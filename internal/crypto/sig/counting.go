package sig

import (
	"sync/atomic"

	"adaptiveba/internal/types"
)

// Counting decorates a Scheme with atomic operation counters, used by the
// experiments to report cryptographic work (signing and verification are
// the CPU cost of authenticated BA, next to the network cost in words).
type Counting struct {
	inner    Scheme
	signs    atomic.Int64
	verifies atomic.Int64
}

var _ Scheme = (*Counting)(nil)

// NewCounting wraps inner.
func NewCounting(inner Scheme) *Counting {
	return &Counting{inner: inner}
}

// Signs returns the number of Sign calls so far.
func (c *Counting) Signs() int64 { return c.signs.Load() }

// Verifies returns the number of Verify calls so far.
func (c *Counting) Verifies() int64 { return c.verifies.Load() }

// Name implements Scheme.
func (c *Counting) Name() string { return c.inner.Name() + "+count" }

// N implements Scheme.
func (c *Counting) N() int { return c.inner.N() }

// SignatureSize implements Scheme.
func (c *Counting) SignatureSize() int { return c.inner.SignatureSize() }

// CheapVerify answers for the wrapped scheme (see CheapVerify): counting
// adds one atomic increment to whatever the inner verification costs.
func (c *Counting) CheapVerify() bool { return CheapVerify(c.inner) }

// Sign implements Scheme.
func (c *Counting) Sign(signer types.ProcessID, msg []byte) (Signature, error) {
	c.signs.Add(1)
	return c.inner.Sign(signer, msg)
}

// Verify implements Scheme.
func (c *Counting) Verify(signer types.ProcessID, msg []byte, s Signature) bool {
	c.verifies.Add(1)
	return c.inner.Verify(signer, msg, s)
}
