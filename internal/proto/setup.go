package proto

import (
	"crypto/rand"
	"fmt"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/types"
)

// Keys is the key source of a trusted setup: the secret the PKI ring is
// derived from and the secret that keys the compact-mode dealer, or a
// request for a real Ed25519 PKI. It holds secrets, not built schemes,
// so one value can set up any number of runs at any Params. The zero
// value names no source; engine.Config reads it as its seed-derived
// default. Build one with Derived, Generated or Ed25519.
type Keys struct {
	ring, dealer string
	ed25519      bool
}

// Derived keys the HMAC ring with ring and the dealer with dealer: the
// same labels give byte-identical keys on every run and host, which is
// what keeps goldens, traces and reports reproducible. Anyone who knows
// the labels can sign for every process.
func Derived(ring, dealer string) Keys { return Keys{ring: ring, dealer: dealer} }

// Generated draws the HMAC ring secret and the dealer secret from
// crypto/rand (128 bits each), so no reader of the source can derive
// either.
func Generated() Keys { return Keys{ring: rand.Text(), dealer: rand.Text()} }

// Ed25519 asks for real Ed25519 signatures: every Setup draws fresh key
// pairs and a fresh dealer secret from crypto/rand.
func Ed25519() Keys { return Keys{ed25519: true} }

// Setup is a run's trusted setup (Section 2): it builds the PKI ring and
// the threshold dealer from keys and assembles the run's Crypto, whose
// certificates take the encoding mode.
func Setup(params types.Params, keys Keys, mode threshold.Mode, opts ...CryptoOption) (*Crypto, error) {
	var scheme sig.Scheme
	var err error
	dealer := keys.dealer
	if keys.ed25519 {
		scheme, err = sig.NewEd25519Ring(params.N, rand.Reader)
		dealer = rand.Text()
	} else {
		scheme, err = sig.NewHMACRing(params.N, []byte(keys.ring))
	}
	if err != nil {
		return nil, fmt.Errorf("proto: setup: %w", err)
	}
	return NewCrypto(params, scheme, mode, []byte(dealer), opts...), nil
}
