package threshold

import (
	"crypto/rand"
	"fmt"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/verifycache"
	"adaptiveba/internal/types"
)

func benchCombine(b *testing.B, n int, mode Mode) {
	base, err := sig.NewHMACRing(n, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	k := (n + (n-1)/2 + 2) / 2 // the paper's quorum
	s, err := New(base, k, mode, []byte("d"))
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("m")
	shares := make([]Share, k)
	for i := 0; i < k; i++ {
		sh, err := s.SignShare(types.ProcessID(i), msg)
		if err != nil {
			b.Fatal(err)
		}
		shares[i] = sh
	}
	var cert *Cert
	b.Run("combine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := s.Combine(msg, shares)
			if err != nil {
				b.Fatal(err)
			}
			cert = c
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !s.Verify(msg, cert) {
				b.Fatal("verify failed")
			}
		}
	})
}

func BenchmarkQuorumCert(b *testing.B) {
	for _, n := range []int{21, 101} {
		for _, mode := range []Mode{ModeAggregate, ModeCompact} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				benchCombine(b, n, mode)
			})
		}
	}
}

// BenchmarkAggregateVerifyFastPath compares the plain aggregate verify
// against the content-addressed cache, over an Ed25519 base where share
// verification dominates.
func BenchmarkAggregateVerifyFastPath(b *testing.B) {
	for _, n := range []int{21, 41} {
		base, err := sig.NewEd25519Ring(n, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		k := (n + (n-1)/2 + 2) / 2
		msg := []byte("m")
		plain, err := New(base, k, ModeAggregate, nil)
		if err != nil {
			b.Fatal(err)
		}
		shares := make([]Share, k)
		for i := 0; i < k; i++ {
			sh, err := plain.SignShare(types.ProcessID(i), msg)
			if err != nil {
				b.Fatal(err)
			}
			shares[i] = sh
		}
		cert, err := plain.Combine(msg, shares)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, s *Scheme) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !s.Verify(msg, cert) {
					b.Fatal("verify failed")
				}
			}
		}
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) { run(b, plain) })
		b.Run(fmt.Sprintf("n=%d/cached", n), func(b *testing.B) {
			s, err := New(base, k, ModeAggregate, nil, WithVerifyCache(verifycache.New(verifycache.DefaultCapacity)))
			if err != nil {
				b.Fatal(err)
			}
			run(b, s)
		})
	}
}
