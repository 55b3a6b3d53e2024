package sig

import (
	"crypto/rand"
	"testing"
)

func benchScheme(b *testing.B, sch Scheme) {
	b.Helper()
	msg := []byte("benchmark message for adaptive byzantine agreement")
	b.Run("sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sch.Sign(0, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	s, err := sch.Sign(0, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !sch.Verify(0, msg, s) {
				b.Fatal("verify failed")
			}
		}
	})
}

// BenchmarkHMAC's verify checks a signature the ring made, which its sign
// record answers; verify-unrecorded checks one of a message of the same
// length that only another ring under the same seed signed, which costs
// the MAC.
func BenchmarkHMAC(b *testing.B) {
	sch, err := NewHMACRing(4, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	benchScheme(b, sch)
	signer, err := NewHMACRing(4, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("benchmark message for adaptive Byzantine agreement")
	s, err := signer.Sign(0, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify-unrecorded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !sch.Verify(0, msg, s) {
				b.Fatal("verify failed")
			}
		}
	})
}

func BenchmarkEd25519(b *testing.B) {
	sch, err := NewEd25519Ring(4, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	benchScheme(b, sch)
}
