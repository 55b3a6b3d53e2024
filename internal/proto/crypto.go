package proto

import (
	"runtime"
	"sync"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/crypto/verifycache"
	"adaptiveba/internal/types"
)

// Crypto bundles the artifacts of the trusted setup (Section 2): the run
// parameters, the PKI signature scheme, and (k, n)-threshold schemes at
// whatever thresholds the protocols request. One Crypto instance is shared
// by all machines of a run; it is safe for concurrent use.
//
// Unless disabled with WithoutVerifyCache, Crypto layers the verification
// fast path (internal/crypto/verifycache) under every machine, wherever a
// lookup is cheaper than the check it saves: Scheme is the cache-wrapped
// signature scheme unless the scheme declares its own verification no
// dearer than the key hash (sig.CheapVerify — the HMAC ring), in which
// case Scheme is the scheme passed in and every verification is a real
// one; threshold schemes memoize whole aggregate certificates and fan
// their share checks across cores. Caching is shared across all machines
// of the run — the point is that n processes verifying the same bytes
// should pay for one verification, not n.
type Crypto struct {
	Params types.Params
	Scheme sig.Scheme

	mode       threshold.Mode
	dealerSeed []byte
	cache      *verifycache.Cache
	signers    []sig.Signer // one per identity, then one for NilProcess; bound to Scheme

	mu  sync.RWMutex
	byK map[int]*threshold.Scheme
}

// cryptoConfig collects option state for NewCrypto.
type cryptoConfig struct {
	disableCache bool
}

// CryptoOption configures NewCrypto.
type CryptoOption func(*cryptoConfig)

// WithoutVerifyCache disables the shared verification fast path: Scheme
// stays exactly the scheme passed in and certificates are verified
// serially from scratch every time. Used for A/B runs (-no-verify-cache).
func WithoutVerifyCache() CryptoOption {
	return func(c *cryptoConfig) { c.disableCache = true }
}

// NewCrypto assembles the trusted setup. mode selects the certificate
// encoding used by all threshold schemes in the run.
func NewCrypto(params types.Params, scheme sig.Scheme, mode threshold.Mode, dealerSeed []byte, opts ...CryptoOption) *Crypto {
	var cfg cryptoConfig
	for _, o := range opts {
		o(&cfg)
	}
	c := &Crypto{
		Params:     params,
		Scheme:     scheme,
		mode:       mode,
		dealerSeed: dealerSeed,
		byK:        make(map[int]*threshold.Scheme),
	}
	if !cfg.disableCache {
		c.cache = verifycache.New(verifycache.DefaultCapacity)
		if !sig.CheapVerify(scheme) {
			c.Scheme = verifycache.WrapScheme(scheme, c.cache)
		}
	}
	c.signers = make([]sig.Signer, params.N+1)
	for i := range c.signers[:params.N] {
		c.signers[i] = *sig.NewSigner(c.Scheme, types.ProcessID(i)) // inlined: the slab is the only allocation
	}
	c.signers[params.N] = *sig.NewSigner(c.Scheme, types.NilProcess)
	return c
}

// Threshold returns the (k, n)-threshold scheme for threshold k, creating
// it on first use. It panics on invalid k — thresholds are derived from
// validated Params, so an invalid k is a programming error.
//
// The lookup sits on the per-message path (every certificate combine and
// verify resolves its scheme here), so the steady state takes only a read
// lock; the write lock is paid once per distinct threshold.
func (c *Crypto) Threshold(k int) *threshold.Scheme {
	c.mu.RLock()
	s, ok := c.byK[k]
	c.mu.RUnlock()
	if ok {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.byK[k]; ok {
		return s
	}
	opts := []threshold.Option{threshold.WithParallelVerify(runtime.GOMAXPROCS(0))}
	if c.cache != nil {
		opts = append(opts, threshold.WithVerifyCache(c.cache))
	}
	s, err := threshold.New(c.Scheme, k, c.mode, c.dealerSeed, opts...)
	if err != nil {
		panic("proto: invalid threshold requested: " + err.Error())
	}
	c.byK[k] = s
	return s
}

// Signer returns the signing capability for id: the same immutable
// (scheme, id) pair on every call, shared by all of id's machines. An id
// outside the run gets the slab's last entry, the signer of NilProcess,
// whose Sign reports the error.
func (c *Crypto) Signer(id types.ProcessID) *sig.Signer {
	if id < 0 || int(id) >= c.Params.N {
		id = types.ProcessID(c.Params.N)
	}
	return &c.signers[id]
}

// Mode returns the certificate encoding used in this run.
func (c *Crypto) Mode() threshold.Mode { return c.mode }

// VerifyCacheEnabled reports whether the verification fast path is on.
func (c *Crypto) VerifyCacheEnabled() bool { return c.cache != nil }

// VerifyCacheStats snapshots the fast-path counters; ok is false when the
// cache is disabled.
func (c *Crypto) VerifyCacheStats() (st verifycache.Stats, ok bool) {
	if c.cache == nil {
		return verifycache.Stats{}, false
	}
	return c.cache.Stats(), true
}
