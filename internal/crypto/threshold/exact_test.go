package threshold_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// minted is a compact certificate fresh from its collector, with what it
// was minted from.
type minted struct {
	s    *threshold.Scheme
	base sig.Scheme
	msg  []byte // the buffer the collector minted from
	cert *threshold.Cert
}

// mint builds a ring of n, a compact scheme at the paper's quorum keyed
// with dealerSeed, and a certificate its collector mints from the first
// quorum of signers.
func mint(t testing.TB, n int, dealerSeed string) minted {
	t.Helper()
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sig.NewHMACRing(n, []byte("exact"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := threshold.New(base, params.Quorum(), threshold.ModeCompact, []byte(dealerSeed))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte(fmt.Sprintf("adaptiveba/exact/n=%d", n))
	cert, err := mintOn(s, msg)
	if err != nil {
		t.Fatal(err)
	}
	return minted{s: s, base: base, msg: msg, cert: cert}
}

// mintOn mints on s a certificate over msg from the first quorum of
// signers.
func mintOn(s *threshold.Scheme, msg []byte) (*threshold.Cert, error) {
	c := s.NewCollector(msg)
	for id := 0; id < s.K(); id++ {
		sh, err := s.SignShare(types.ProcessID(id), msg)
		if err != nil {
			return nil, err
		}
		if !c.Add(sh) {
			return nil, fmt.Errorf("share %d refused", id)
		}
	}
	return c.Cert()
}

// decoded is cert after a wire round trip: the same fields, and nothing
// of the mint behind them.
func decoded(t testing.TB, cert *threshold.Cert) *threshold.Cert {
	t.Helper()
	w := wire.NewWriter()
	w.PutCert(cert)
	r := wire.NewReader(w.Bytes())
	out := r.Cert()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// flipSigner toggles id's membership of b.
func flipSigner(b *types.BitSet, id types.ProcessID) {
	if b.Has(id) {
		b.Remove(id)
	} else {
		b.Add(id)
	}
}

// TestMintedCertVerifiesExactly is the differential check behind the mint
// record: on a minted certificate and on every mutation of it — another
// message, a flipped signer bit or tag bit, each made in place, through a
// value copy of the certificate and through a decoded copy, another
// threshold, another suite, a certificate built by hand — Verify answers
// what the MAC answers: a scheme of the same dealer and threshold that
// never minted, asked about the same certificate decoded from the wire,
// which carries no record. It also pins where the answer comes from: the
// certificate exactly as minted, asked of its own scheme, costs no dealer
// MAC, with its record or, once forwarded, without one (decoded, cloned or
// built by hand: the scheme's log of forwarded mints), and every other
// case that passes the structural checks costs one.
func TestMintedCertVerifiesExactly(t *testing.T) {
	for _, n := range []int{4, 130} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m := mint(t, n, "dealer")
			s, cert := m.s, m.cert
			same, err := threshold.New(m.base, s.K(), threshold.ModeCompact, []byte("dealer"))
			if err != nil {
				t.Fatal(err)
			}
			otherDealer, err := threshold.New(m.base, s.K(), threshold.ModeCompact, []byte("other dealer"))
			if err != nil {
				t.Fatal(err)
			}
			otherK, err := threshold.New(m.base, s.K()-1, threshold.ModeCompact, []byte("dealer"))
			if err != nil {
				t.Fatal(err)
			}
			// Of the schemes asked, only s mints: the others answer a
			// record-less certificate with the MAC, and same stands in for s.
			macOf := func(v *threshold.Scheme) *threshold.Scheme {
				if v == s {
					return same
				}
				return v
			}
			accepted := 0
			check := func(what string, v *threshold.Scheme, msg []byte, c *threshold.Cert, fromMint bool) {
				t.Helper()
				want := macOf(v).Verify(msg, decoded(t, c))
				before := threshold.DealerMACs()
				got := v.Verify(msg, c)
				macs := threshold.DealerMACs() - before
				if got != want {
					t.Errorf("%s: Verify says %t, the MAC says %t", what, got, want)
				}
				wantMACs := uint64(0)
				if !fromMint && c.K == v.K() && c.Signers.Cap() == v.N() && c.Count() >= v.K() {
					wantMACs = 1
				}
				if macs != wantMACs {
					t.Errorf("%s: %d dealer MACs, want %d", what, macs, wantMACs)
				}
				if got {
					accepted++
				}
			}

			check("as minted", s, m.msg, cert, true)
			check("as minted, the message in another buffer", s, bytes.Clone(m.msg), cert, true)
			if accepted != 2 {
				t.Fatal("the minted certificate is refused")
			}
			check("a value copy", s, m.msg, func() *threshold.Cert { c := *cert; return &c }(), true)
			check("decoded from the wire, not forwarded", s, m.msg, decoded(t, cert), false)
			cert.Forward()
			check("decoded from the wire", s, m.msg, decoded(t, cert), true)
			check("cloned", s, m.msg, cert.Clone(), true)
			check("built by hand", s, m.msg, &threshold.Cert{K: cert.K, Signers: cert.Signers.Clone(), Tag: bytes.Clone(cert.Tag)}, true)

			// Another message.
			for _, msg := range [][]byte{nil, m.msg[:len(m.msg)-1], append(bytes.Clone(m.msg), 0), []byte("another message")} {
				check(fmt.Sprintf("message %q", msg), s, msg, cert, false)
			}
			for i := range m.msg {
				for bit := 0; bit < 8; bit++ {
					msg := bytes.Clone(m.msg)
					msg[i] ^= 1 << bit
					check(fmt.Sprintf("message byte %d bit %d flipped", i, bit), s, msg, cert, false)
					m.msg[i] ^= 1 << bit // the caller's own buffer, changed after the mint
					check(fmt.Sprintf("minted buffer byte %d bit %d flipped in place", i, bit), s, m.msg, cert, false)
					m.msg[i] ^= 1 << bit
				}
			}

			// A flipped signer bit.
			for id := types.ProcessID(0); int(id) < n; id++ {
				flipSigner(cert.Signers, id)
				check(fmt.Sprintf("signer %d flipped in place", id), s, m.msg, cert, false)
				flipSigner(cert.Signers, id)
				c := *cert
				c.Signers = cert.Signers.Clone()
				flipSigner(c.Signers, id)
				check(fmt.Sprintf("signer %d flipped in a value copy", id), s, m.msg, &c, false)
				check(fmt.Sprintf("signer %d flipped in a decoded copy", id), s, m.msg, decoded(t, &c), false)
			}

			// A flipped tag bit.
			for i := range cert.Tag {
				for bit := 0; bit < 8; bit++ {
					cert.Tag[i] ^= 1 << bit
					check(fmt.Sprintf("tag byte %d bit %d flipped in place", i, bit), s, m.msg, cert, false)
					cert.Tag[i] ^= 1 << bit
					c := *cert
					c.Tag = bytes.Clone(cert.Tag)
					c.Tag[i] ^= 1 << bit
					check(fmt.Sprintf("tag byte %d bit %d flipped in a value copy", i, bit), s, m.msg, &c, false)
					check(fmt.Sprintf("tag byte %d bit %d flipped in a decoded copy", i, bit), s, m.msg, decoded(t, &c), false)
				}
			}
			for _, tag := range [][]byte{nil, cert.Tag[:len(cert.Tag)-1], append(bytes.Clone(cert.Tag), 0)} {
				c := *cert
				c.Tag = tag
				check(fmt.Sprintf("a %d-byte tag in a value copy", len(tag)), s, m.msg, &c, false)
			}

			// Another threshold, another suite.
			check("asked of a scheme at another threshold", otherK, m.msg, cert, false)
			c := *cert
			c.K = otherK.K()
			check("relabelled for another threshold in a value copy", otherK, m.msg, &c, false)
			check("asked of another dealer's scheme", otherDealer, m.msg, cert, false)
			check("asked of another scheme of the same dealer", same, m.msg, cert, false)
			check("decoded, asked of another scheme of the same dealer", same, m.msg, decoded(t, cert), false)
			check("decoded, under another message", s, []byte("another message"), decoded(t, cert), false)

			check("as minted, after every mutation", s, m.msg, cert, true)
			check("decoded, after every mutation", s, m.msg, decoded(t, cert), true)
			if want := 11; accepted != want {
				t.Errorf("%d checks accepted, want %d: the certificate as minted, its copies and the same dealer's other scheme", accepted, want)
			}
		})
	}
}

// TestForwardLogIsBounded: a decoded copy of a forwarded certificate is
// answered from the scheme's log while the certificate is among the
// scheme's latest forwarded mints. Mints that are not forwarded leave the
// log alone; after 64 forwarded ones the copy costs the MAC again, and is
// still accepted.
func TestForwardLogIsBounded(t *testing.T) {
	m := mint(t, 9, "dealer")
	m.cert.Forward()
	verify := func(what string, wantMACs uint64) {
		t.Helper()
		before := threshold.DealerMACs()
		if !m.s.Verify(m.msg, decoded(t, m.cert)) {
			t.Fatalf("%s: a decoded copy of a minted certificate refused", what)
		}
		if macs := threshold.DealerMACs() - before; macs != wantMACs {
			t.Errorf("%s: %d dealer MACs, want %d", what, macs, wantMACs)
		}
	}
	verify("forwarded", 0)
	for i := 0; i < 64; i++ {
		if _, err := mintOn(m.s, []byte(fmt.Sprintf("later mint %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	verify("after 64 later mints", 0)
	for i := 0; i < 64; i++ {
		c, err := mintOn(m.s, []byte(fmt.Sprintf("later forward %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		c.Forward()
	}
	verify("after 64 later forwards", 1)
}

// TestMintedCertVerifyAllocs is the allocation guard on the record check:
// verifying a minted certificate allocates nothing.
func TestMintedCertVerifyAllocs(t *testing.T) {
	for _, n := range []int{4, 130} {
		m := mint(t, n, "dealer")
		if a := testing.AllocsPerRun(100, func() {
			if !m.s.Verify(m.msg, m.cert) {
				t.Fatal("minted certificate refused")
			}
		}); a != 0 {
			t.Errorf("n=%d: verifying a minted certificate allocates %.1f, want 0", n, a)
		}
	}
}

// TestMintedCertConcurrentVerify verifies one minted certificate from
// GOMAXPROCS goroutines at once, alongside a value copy with a flipped
// tag bit, which takes the MAC on the same scheme, and a decoded copy of
// the forwarded certificate, answered from the scheme's log while one
// more goroutine mints and forwards on the scheme; run under -race. Every
// answer must be the MAC's.
func TestMintedCertConcurrentVerify(t *testing.T) {
	testenv.Procs(t, max(2, runtime.GOMAXPROCS(0)))
	m := mint(t, 130, "dealer")
	m.cert.Forward()
	forged := *m.cert
	forged.Tag = bytes.Clone(m.cert.Tag)
	forged.Tag[0] ^= 1
	fromWire := decoded(t, m.cert)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c, err := mintOn(m.s, []byte(fmt.Sprintf("concurrent mint %d", i)))
			if err != nil {
				t.Error(err)
				return
			}
			c.Forward()
		}
	}()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !m.s.Verify(m.msg, m.cert) || !m.s.Verify(m.msg, fromWire) {
					t.Error("valid certificate refused")
					return
				}
				if m.s.Verify(m.msg, &forged) {
					t.Error("forged tag accepted")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkVerifyDecodedCert is the cost of the dealer MAC a compact
// certificate from the wire pays at n = 9, next to the record check a
// minted one pays.
func BenchmarkVerifyDecodedCert(b *testing.B) {
	m := mint(b, 9, "dealer")
	for _, tc := range []struct {
		name string
		cert *threshold.Cert
	}{{"decoded", decoded(b, m.cert)}, {"minted", m.cert}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !m.s.Verify(m.msg, tc.cert) {
					b.Fatal("certificate refused")
				}
			}
		})
	}
}
