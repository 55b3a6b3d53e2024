package proto

import (
	"crypto/rand"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/types"
)

// fakePayload is a minimal payload for framework tests.
type fakePayload struct {
	name  string
	words int
}

func (f fakePayload) Type() string { return f.name }
func (f fakePayload) Words() int   { return f.words }

// echoMachine records calls and echoes every inbox message back to its
// sender, for exercising Sub routing.
type echoMachine struct {
	begun   types.Tick
	ticks   []types.Tick
	inboxes [][]Incoming
	decided bool
}

func (e *echoMachine) Begin(now types.Tick, outs []Outgoing) []Outgoing {
	e.begun = now
	return AppendUnicast(outs, 1, "", fakePayload{name: "hello", words: 1})
}

func (e *echoMachine) Tick(now types.Tick, inbox []Incoming, outs []Outgoing) []Outgoing {
	e.ticks = append(e.ticks, now)
	e.inboxes = append(e.inboxes, append([]Incoming(nil), inbox...)) // the values, never the slice
	for _, in := range inbox {
		outs = append(outs, Outgoing{To: in.From, Session: in.Session, Payload: in.Payload})
	}
	return outs
}

func (e *echoMachine) Output() (types.Value, bool) { return nil, e.decided }
func (e *echoMachine) Done() bool                  { return e.decided }

func TestSessionHelpers(t *testing.T) {
	if got := JoinSession("bb", ""); got != "bb" {
		t.Errorf("JoinSession = %q", got)
	}
	if got := JoinSession("bb", "wba/fallback"); got != "bb/wba/fallback" {
		t.Errorf("JoinSession = %q", got)
	}
	head, rest := SplitSession("bb/wba/fallback")
	if head != "bb" || rest != "wba/fallback" {
		t.Errorf("SplitSession = %q, %q", head, rest)
	}
	head, rest = SplitSession("leaf")
	if head != "leaf" || rest != "" {
		t.Errorf("SplitSession leaf = %q, %q", head, rest)
	}
}

func TestBroadcastIncludesSelf(t *testing.T) {
	p, _ := types.NewParams(5)
	prior := []Outgoing{{To: 9, Session: "prior"}}
	outs := AppendBroadcast(prior, p, "s", fakePayload{name: "x", words: 2})
	if len(outs) != 6 || outs[0].To != 9 || outs[0].Session != "prior" {
		t.Fatalf("broadcast appended to %+v gives %d sends, first %+v", prior, len(outs), outs[0])
	}
	seen := map[types.ProcessID]bool{}
	for _, o := range outs[1:] {
		seen[o.To] = true
		if o.Session != "s" {
			t.Errorf("session = %q", o.Session)
		}
	}
	if len(seen) != 5 {
		t.Errorf("recipients: %v", seen)
	}
}

func TestUnicast(t *testing.T) {
	outs := AppendUnicast([]Outgoing{{To: 9}}, 3, "", fakePayload{name: "y", words: 1})
	if len(outs) != 2 || outs[0].To != 9 || outs[1].To != 3 {
		t.Fatalf("got %+v", outs)
	}
}

// TestSplitChild: the nested child's frames come back compacted at the
// front of the inbox, prefix stripped, in order; everything else reaches
// ingest, in order; no second slice is involved.
func TestSplitChild(t *testing.T) {
	inbox := muxInbox("", "fb", "x", "fb/i3", "fbx", "fb/i3/deep", "")
	var mine []types.ProcessID
	child := SplitChild(inbox, "fb", func(in Incoming) { mine = append(mine, in.From) })
	if len(child) != 3 || &child[0] != &inbox[0] {
		t.Fatalf("child frames: %d, in place: %v", len(child), len(child) > 0 && &child[0] == &inbox[0])
	}
	for i, want := range []struct {
		from types.ProcessID
		rest string
	}{{1, ""}, {3, "i3"}, {5, "i3/deep"}} {
		if child[i].From != want.from || child[i].Session != want.rest {
			t.Errorf("child frame %d = %+v, want from %v session %q", i, child[i], want.from, want.rest)
		}
	}
	if want := []types.ProcessID{0, 2, 4, 6}; !reflect.DeepEqual(mine, want) {
		t.Errorf("ingested %v, want %v", mine, want)
	}
	if got := SplitChild(nil, "fb", func(Incoming) { t.Error("ingest called on an empty inbox") }); len(got) != 0 {
		t.Errorf("empty inbox split into %d frames", len(got))
	}
}

func TestRoundClockLockStep(t *testing.T) {
	c := NewRoundClock(0, 1)
	for tick, want := range map[types.Tick]types.Round{0: 1, 1: 2, 5: 6} {
		if got := c.RoundAt(tick); got != want {
			t.Errorf("RoundAt(%d) = %d, want %d", tick, got, want)
		}
		if r, ok := c.BoundaryAt(tick); !ok || r != want {
			t.Errorf("BoundaryAt(%d) = %d,%v", tick, r, ok)
		}
	}
}

func TestRoundClockDoubleDuration(t *testing.T) {
	c := NewRoundClock(10, 2)
	if r := c.RoundAt(9); r != 0 {
		t.Errorf("before start: %d", r)
	}
	if _, ok := c.BoundaryAt(9); ok {
		t.Error("boundary before start")
	}
	cases := []struct {
		tick     types.Tick
		round    types.Round
		boundary bool
	}{
		{10, 1, true}, {11, 1, false}, {12, 2, true}, {13, 2, false}, {18, 5, true},
	}
	for _, tc := range cases {
		if got := c.RoundAt(tc.tick); got != tc.round {
			t.Errorf("RoundAt(%d) = %d, want %d", tc.tick, got, tc.round)
		}
		_, ok := c.BoundaryAt(tc.tick)
		if ok != tc.boundary {
			t.Errorf("BoundaryAt(%d) = %v", tc.tick, ok)
		}
	}
	if got := c.StartOf(3); got != 14 {
		t.Errorf("StartOf(3) = %d", got)
	}
}

// TestRoundClockBoundaryMatchesDivision holds BoundaryAt, whose Dur = 1
// case divides nothing, to the division rule for Dur 1, 2 and 3, on the
// ticks around Start (before it, at it, and across several rounds).
func TestRoundClockBoundaryMatchesDivision(t *testing.T) {
	for _, dur := range []int{1, 2, 3} {
		for _, start := range []types.Tick{0, 1, 7} {
			c := NewRoundClock(start, dur)
			for now := start - 4; now <= start+4*types.Tick(dur)+1; now++ {
				var want types.Round
				wantOK := false
				if off := now - start; off >= 0 && off%types.Tick(dur) == 0 {
					want, wantOK = types.Round(off/types.Tick(dur))+1, true
				}
				if r, ok := c.BoundaryAt(now); r != want || ok != wantOK {
					t.Errorf("Dur %d, Start %d: BoundaryAt(%d) = %d, %t; want %d, %t", dur, start, now, r, ok, want, wantOK)
				}
			}
		}
	}
}

func TestRoundClockClampsDuration(t *testing.T) {
	c := NewRoundClock(0, 0)
	if c.Dur != 1 {
		t.Errorf("Dur = %d", c.Dur)
	}
}

func TestSubRoutingAndWrapping(t *testing.T) {
	child := &echoMachine{}
	sub := NewSub("wba", child)

	inbox := []Incoming{
		{From: 1, Session: "wba", Payload: fakePayload{name: "a"}},
		{From: 2, Session: "wba/fallback", Payload: fakePayload{name: "b"}},
		{From: 3, Session: "other", Payload: fakePayload{name: "c"}},
		{From: 4, Session: "", Payload: fakePayload{name: "d"}},
	}
	mine, rest := sub.Route(inbox)
	if len(mine) != 2 || len(rest) != 2 {
		t.Fatalf("route split %d/%d", len(mine), len(rest))
	}
	if mine[0].Session != "" || mine[1].Session != "fallback" {
		t.Errorf("stripped sessions: %q %q", mine[0].Session, mine[1].Session)
	}

	outs := sub.Begin(5, nil)
	if child.begun != 5 {
		t.Errorf("child begun at %d", child.begun)
	}
	if len(outs) != 1 || outs[0].Session != "wba" {
		t.Fatalf("begin outs: %+v", outs)
	}
	// Only the tail the child appended is wrapped: what the caller already
	// had in the buffer (a sibling's sends) keeps its path.
	outs = sub.Tick(6, mine, []Outgoing{{To: 7, Session: "sibling/x"}})
	if len(outs) != 3 {
		t.Fatalf("tick outs: %+v", outs)
	}
	if outs[0].Session != "sibling/x" || outs[1].Session != "wba" || outs[2].Session != "wba/fallback" {
		t.Errorf("wrapped sessions: %q %q %q", outs[0].Session, outs[1].Session, outs[2].Session)
	}
}

func TestSubBuffersBeforeBegin(t *testing.T) {
	child := &echoMachine{}
	sub := NewSub("fb", child)

	early := []Incoming{{From: 1, Session: "fb", Payload: fakePayload{name: "early"}}}
	mine, _ := sub.Route(early)
	if outs := sub.Tick(1, mine, nil); outs != nil {
		t.Fatalf("unstarted child produced sends: %+v", outs)
	}
	mine[0].Payload = fakePayload{name: "scribbled"} // the Sub kept the value, not the slice
	if sub.Done() {
		t.Error("unstarted child reported done")
	}
	sub.Begin(3, nil)
	outs := sub.Tick(4, nil, nil)
	if len(outs) != 1 {
		t.Fatalf("buffered message not replayed: %+v", outs)
	}
	if len(child.inboxes) != 1 || len(child.inboxes[0]) != 1 {
		t.Fatalf("child saw %+v", child.inboxes)
	}
	if child.inboxes[0][0].Payload.Type() != "early" {
		t.Error("wrong replayed payload")
	}
}

func TestSubBeginIdempotent(t *testing.T) {
	child := &echoMachine{}
	sub := NewSub("x", child)
	outs := sub.Begin(0, nil)
	if len(outs) != 1 {
		t.Fatal("first begin")
	}
	if outs = sub.Begin(1, outs); len(outs) != 1 {
		t.Fatal("second begin produced sends")
	}
	if child.begun != 0 {
		t.Error("child restarted")
	}
}

func TestCryptoThresholdCaching(t *testing.T) {
	params, _ := types.NewParams(7)
	ring, _ := sig.NewHMACRing(7, []byte("s"))
	c := NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
	a := c.Threshold(4)
	b := c.Threshold(4)
	if a != b {
		t.Error("threshold scheme not cached")
	}
	if a.K() != 4 || a.N() != 7 {
		t.Errorf("scheme params: k=%d n=%d", a.K(), a.N())
	}
	if c.Threshold(5) == a {
		t.Error("different k returned same scheme")
	}
	if c.Mode() != threshold.ModeCompact {
		t.Errorf("mode = %v", c.Mode())
	}
	s := c.Signer(3)
	if s.ID() != 3 {
		t.Errorf("signer id = %v", s.ID())
	}
}

// TestCryptoSignerIsOnePerIdentity: every machine of identity id shares
// one signer (pointer-identical across calls, built with the Crypto, so
// Signer itself allocates nothing), it signs through the cache-wrapped
// Scheme, and it is safe to use from many machines at once (run under
// -race). An identity outside the run takes the same path to the one
// NilProcess signer, and fails in Sign, not in Signer.
func TestCryptoSignerIsOnePerIdentity(t *testing.T) {
	params, _ := types.NewParams(7)
	ring, _ := sig.NewHMACRing(7, []byte("s"))
	c := NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
	for id := types.ProcessID(0); id < 7; id++ {
		if a, b := c.Signer(id), c.Signer(id); a != b || a.ID() != id {
			t.Fatalf("Signer(%v) = %p, %p (id %v): want one shared signer", id, a, b, a.ID())
		}
	}
	if a := testing.AllocsPerRun(100, func() { _ = c.Signer(3) }); a != 0 {
		t.Errorf("Signer allocates %.0f, want 0", a)
	}
	for _, id := range []types.ProcessID{-1, 7, 8} {
		s := c.Signer(id)
		if s != c.Signer(types.NilProcess) || s.ID() != types.NilProcess {
			t.Errorf("Signer(%v) has id %v, want the one NilProcess signer", id, s.ID())
		}
		if _, err := s.Sign([]byte("m")); err == nil {
			t.Errorf("Signer(%v).Sign succeeded for an identity outside the run", id)
		}
	}

	const goroutines = 8
	msg := []byte("one signer, many machines")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := types.ProcessID((g + i) % 7)
				sg, err := c.Signer(id).Sign(msg)
				if err != nil || !c.Scheme.Verify(id, msg, sg) {
					t.Errorf("goroutine %d: Signer(%v) produced a bad signature (err %v)", g, id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCryptoThresholdPanicsOnInvalidK(t *testing.T) {
	params, _ := types.NewParams(7)
	ring, _ := sig.NewHMACRing(7, []byte("s"))
	c := NewCrypto(params, ring, threshold.ModeAggregate, nil)
	defer func() {
		if recover() == nil {
			t.Error("no panic for invalid threshold")
		}
	}()
	c.Threshold(0)
}

// TestCryptoVerifyCacheDefaultOn: a scheme that does not declare its
// verification cheap (real signatures) is cache-wrapped by default.
func TestCryptoVerifyCacheDefaultOn(t *testing.T) {
	params, _ := types.NewParams(7)
	ring, err := sig.NewEd25519Ring(7, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCrypto(params, ring, threshold.ModeAggregate, nil)
	if c.cache == nil {
		t.Fatal("verify cache not enabled by default")
	}
	if c.Scheme == sig.Scheme(ring) {
		t.Error("Scheme not cache-wrapped")
	}
	msg := []byte("m")
	sg, err := c.Scheme.Sign(2, msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !c.Scheme.Verify(2, msg, sg) {
			t.Fatal("valid signature rejected")
		}
	}
	st, ok := c.VerifyCacheStats()
	if !ok || st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v ok=%v, want 1 miss / 2 hits", st, ok)
	}
}

// TestCryptoForgerySweep flips every single bit of the signer, the message
// and the signature of a valid triple and expects each variant refused,
// both as a signature and as a threshold share handed to a collector (the
// one check a share gets before a certificate is minted from it), on both
// verification paths NewCrypto chooses between: the HMAC ring, which
// declares its verification cheap, is Crypto.Scheme itself — every check a
// real one, the cache never consulted, also behind the op counter, which
// answers for the ring it wraps — and the Ed25519 ring is verified through
// the cache, where a remembered positive must not vouch for other bytes.
// Then it mints a certificate from a quorum of shares and flips every
// bit of its message, signer set and tag — in the certificate itself and
// in a copy of its fields — and expects each variant refused by the
// suite's threshold scheme, which answers a certificate exactly as minted
// without a MAC.
func TestCryptoForgerySweep(t *testing.T) {
	const n = 7
	params, _ := types.NewParams(n)
	hm, _ := sig.NewHMACRing(n, []byte("s"))
	ed, err := sig.NewEd25519Ring(n, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		scheme sig.Scheme
		direct bool
	}{
		{"hmac", hm, true},
		{"hmac+count", sig.NewCounting(hm), true},
		{"ed25519", ed, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCrypto(params, tc.scheme, threshold.ModeCompact, []byte("d"))
			if c.cache == nil {
				t.Fatal("fast path off by default")
			}
			if got := c.Scheme == tc.scheme; got != tc.direct {
				t.Fatalf("Scheme is the scheme passed in: %t, want %t", got, tc.direct)
			}
			const signer = types.ProcessID(2)
			msg := []byte("transfer 10 coins to p2")
			sg, err := c.Signer(signer).Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			share := func(id types.ProcessID, m []byte, s sig.Signature) bool {
				return c.Threshold(1).NewCollector(m).Add(threshold.Share{Signer: id, Sig: s})
			}
			accepted := func(id types.ProcessID, m []byte, s sig.Signature) bool {
				return c.Scheme.Verify(id, m, s) || share(id, m, s)
			}
			valid := func(when string) {
				t.Helper()
				for i := 0; i < 3; i++ {
					if !c.Scheme.Verify(signer, msg, sg) || !share(signer, msg, sg) {
						t.Fatalf("valid signature rejected %s (check %d)", when, i)
					}
				}
			}
			valid("before the sweep")
			for bit := 0; bit < 64; bit++ {
				if other := signer ^ types.ProcessID(1)<<bit; accepted(other, msg, sg) {
					t.Errorf("accepted for signer %d (bit %d flipped)", other, bit)
				}
			}
			for i := range msg {
				for bit := 0; bit < 8; bit++ {
					forged := append([]byte(nil), msg...)
					forged[i] ^= 1 << bit
					if accepted(signer, forged, sg) {
						t.Errorf("accepted for a message with byte %d bit %d flipped", i, bit)
					}
				}
			}
			for i := range sg {
				for bit := 0; bit < 8; bit++ {
					forged := sg.Clone()
					forged[i] ^= 1 << bit
					if accepted(signer, msg, forged) {
						t.Errorf("accepted a signature with byte %d bit %d flipped", i, bit)
					}
				}
			}
			valid("after the sweep")

			st, ok := c.VerifyCacheStats()
			if !ok {
				t.Fatal("no stats with the fast path on")
			}
			lookups := st.Hits + st.Misses + st.InflightWaits
			if tc.direct && lookups != 0 {
				t.Errorf("cheap-verify scheme consulted the cache: %+v", st)
			}
			if !tc.direct && (st.Hits < 5 || st.Misses < 1) {
				t.Errorf("cached scheme: stats = %+v, want the six valid checks served by one miss", st)
			}

			th := c.Threshold(params.Quorum())
			col := th.NewCollector(msg)
			for id := types.ProcessID(0); int(id) < th.K(); id++ {
				sh, err := th.SignShare(id, msg)
				if err != nil || !col.Add(sh) {
					t.Fatalf("share %d refused: %v", id, err)
				}
			}
			cert, err := col.Cert()
			if err != nil {
				t.Fatal(err)
			}
			certValid := func(when string) {
				t.Helper()
				for i := 0; i < 3; i++ {
					if !th.Verify(msg, cert) {
						t.Fatalf("minted certificate rejected %s (check %d)", when, i)
					}
				}
			}
			certValid("before the sweep")
			for i := range msg {
				for bit := 0; bit < 8; bit++ {
					forged := append([]byte(nil), msg...)
					forged[i] ^= 1 << bit
					if th.Verify(forged, cert) {
						t.Errorf("certificate accepted for a message with byte %d bit %d flipped", i, bit)
					}
				}
			}
			flip := func(b *types.BitSet, id types.ProcessID) {
				if b.Has(id) {
					b.Remove(id)
				} else {
					b.Add(id)
				}
			}
			for id := types.ProcessID(0); int(id) < n; id++ {
				flip(cert.Signers, id)
				if th.Verify(msg, cert) {
					t.Errorf("certificate accepted with signer %d flipped in place", id)
				}
				flip(cert.Signers, id)
				forged := *cert
				forged.Signers = cert.Signers.Clone()
				flip(forged.Signers, id)
				if th.Verify(msg, &forged) {
					t.Errorf("certificate accepted with signer %d flipped in a copy", id)
				}
			}
			for i := range cert.Tag {
				for bit := 0; bit < 8; bit++ {
					cert.Tag[i] ^= 1 << bit
					if th.Verify(msg, cert) {
						t.Errorf("certificate accepted with tag byte %d bit %d flipped in place", i, bit)
					}
					cert.Tag[i] ^= 1 << bit
					forged := *cert
					forged.Tag = append([]byte(nil), cert.Tag...)
					forged.Tag[i] ^= 1 << bit
					if th.Verify(msg, &forged) {
						t.Errorf("certificate accepted with tag byte %d bit %d flipped in a copy", i, bit)
					}
				}
			}
			certValid("after the sweep")
		})
	}
}

// TestCryptoWithoutVerifyCache: the one suite without the verification
// cache is a counting one, which measures inherent demand — so even a
// scheme the cache would wrap (Ed25519) is left unwrapped under the
// counter, and every verification reaches the counter.
func TestCryptoWithoutVerifyCache(t *testing.T) {
	params, _ := types.NewParams(7)
	ring, err := sig.NewEd25519Ring(7, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCrypto(params, ring, threshold.ModeAggregate, nil, CountOps())
	if c.cache != nil {
		t.Fatal("CountOps suite has a verify cache")
	}
	if c.Scheme != sig.Scheme(c.counter) {
		t.Error("Scheme is not the bare counter")
	}
	if _, ok := c.VerifyCacheStats(); ok {
		t.Error("stats reported without a cache")
	}
	msg := []byte("m")
	sg, err := c.Signer(2).Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !c.Scheme.Verify(2, msg, sg) {
			t.Fatal("valid signature rejected")
		}
	}
	if signs, verifies := c.Ops(); signs != 1 || verifies != 3 {
		t.Errorf("Ops = %d signs / %d verifies, want 1 / 3", signs, verifies)
	}
}

// TestCryptoThresholdConcurrentAccess hammers the Threshold lookup from
// many goroutines (race detector checks the RWMutex discipline) and
// asserts every caller sees the same cached scheme per k.
func TestCryptoThresholdConcurrentAccess(t *testing.T) {
	params, _ := types.NewParams(15)
	ring, _ := sig.NewHMACRing(15, []byte("s"))
	c := NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
	const goroutines = 16
	got := make([][]*threshold.Scheme, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*threshold.Scheme, 0, 400)
			for i := 0; i < 100; i++ {
				for k := 1; k <= 4; k++ {
					got[g] = append(got[g], c.Threshold(k))
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range got[g] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d saw a different scheme instance at %d", g, i)
			}
		}
	}
}

// TestSubJoinsEachPathOnce: a child that keeps switching among a handful
// of paths stops paying a join per switch once it has switched more than
// maxPaths times; a child that uses each of its paths once (a broadcast's
// phases) never gets the cache; and a child with more paths than the Sub
// keeps joined still gets every send prefixed as JoinSession would.
func TestSubJoinsEachPathOnce(t *testing.T) {
	sub := NewSub("s0", &echoMachine{})
	sub.Begin(0, nil)
	rests := []string{"b0/wba", "", "b1", "b0/wba", "b2/wba/fallback", "b1", "", "b0/wba"}
	outs := make([]Outgoing, len(rests))
	wrap := func() {
		for i, r := range rests {
			outs[i] = Outgoing{Session: r}
		}
		sub.wrap(0, outs)
	}
	for pass := 0; pass < 3; pass++ {
		wrap()
	}
	if a := testing.AllocsPerRun(1, wrap); a != 0 {
		t.Errorf("switching among four joined paths allocates %.0f per pass, want 0", a)
	}

	once := NewSub("s1", &echoMachine{})
	once.Begin(0, nil)
	for i := 0; i < maxPaths; i++ {
		once.wrap(0, []Outgoing{{Session: fmt.Sprintf("wba/p%d", i)}})
	}
	if once.others != nil {
		t.Error("a child that used each of its paths once got the path cache")
	}

	many := NewSub("s2", &echoMachine{})
	many.Begin(0, nil)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 3*maxPaths; i++ {
			rest := fmt.Sprintf("b%d/wba", i%(2*maxPaths))
			out := many.wrap(0, []Outgoing{{Session: rest}})
			if want := JoinSession("s2", rest); out[0].Session != want {
				t.Fatalf("pass %d send %d: session %q, want %q", pass, i, out[0].Session, want)
			}
		}
	}
}

// TestSubWrapJoinsEachRunOnce: wrap prefixes every send exactly as
// JoinSession would — across alternating, repeated and empty paths, and
// from one tick to the next — while a broadcast on one nested path costs
// one concatenation, not one per recipient.
func TestSubWrapJoinsEachRunOnce(t *testing.T) {
	child := &echoMachine{}
	sub := NewSub("s0", child)
	sub.Begin(0, nil)
	rests := []string{"", "", "b0/wba", "b0/wba", "b0/wba", "", "b1", "b0/wba", "b1", "b1"}
	for tick := types.Tick(1); tick <= 3; tick++ {
		inbox := make([]Incoming, len(rests))
		for i, r := range rests {
			inbox[i] = Incoming{From: types.ProcessID(i), Session: r, Payload: fakePayload{name: "p"}}
		}
		outs := sub.Tick(tick, inbox, nil)
		if len(outs) != len(rests) {
			t.Fatalf("tick %d: %d outs", tick, len(outs))
		}
		for i, r := range rests {
			if want := JoinSession("s0", r); outs[i].Session != want {
				t.Errorf("tick %d out %d: session %q, want %q", tick, i, outs[i].Session, want)
			}
		}
	}

	params, err := types.NewParams(16)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]Outgoing, 0, params.N)
	if a := testing.AllocsPerRun(50, func() {
		outs = AppendBroadcast(outs[:0], params, "b3/wba", fakePayload{name: "p"})
		sub.wrap(0, outs)
		sub.lastJoined = "" // next run starts cold: count the join itself
	}); a > 2 { // the joined string, and the payload boxed into its interface
		t.Errorf("wrapping a %d-way broadcast on one nested path allocates %.0f, want <= 2", params.N, a)
	}
}
