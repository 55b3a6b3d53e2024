package wba

import (
	"testing"

	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// levelFixture drives a single weak BA machine by hand, playing a
// Byzantine environment around it.
type levelFixture struct {
	t      *testing.T
	crypto *proto.Crypto
	params types.Params
	m      *Machine
	now    types.Tick
}

func newLevelFixture(t *testing.T) *levelFixture {
	t.Helper()
	params, err := types.NewParams(9)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(9, []byte("level-test"))
	if err != nil {
		t.Fatal(err)
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
	f := &levelFixture{t: t, crypto: crypto, params: params}
	f.m = NewMachine(Config{
		Params: params, Crypto: crypto, ID: 0,
		Input: types.Value("own"), Predicate: valid.NonBottom(), Tag: "lv",
	})
	f.m.Begin(0, nil)
	return f
}

// step advances one tick delivering the given messages.
func (f *levelFixture) step(inbox ...proto.Incoming) []proto.Outgoing {
	f.now++
	return f.m.Tick(f.now, inbox, nil)
}

// stepTo advances ticks (empty inboxes) until tick target.
func (f *levelFixture) stepTo(target types.Tick) {
	for f.now < target {
		f.step()
	}
}

// commitCert builds a valid commit certificate for (v, level) using the
// quorum's worth of signers.
func (f *levelFixture) commitCert(v types.Value, level int) *threshold.Cert {
	f.t.Helper()
	scheme := f.crypto.Threshold(f.params.Quorum())
	base := VoteBase("lv", level, v)
	var shares []threshold.Share
	for i := 0; i < f.params.Quorum(); i++ {
		sh, err := scheme.SignShare(types.ProcessID(i), base)
		if err != nil {
			f.t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	cert, err := scheme.Combine(base, shares)
	if err != nil {
		f.t.Fatal(err)
	}
	return cert
}

// decideShareSent reports whether outs contains a Decide for (v, phase).
func decideShareSent(outs []proto.Outgoing, v types.Value, phase int) bool {
	for _, o := range outs {
		if d, ok := o.Payload.(Decide); ok && d.Phase == phase && d.V.Equal(v) {
			return true
		}
	}
	return false
}

// TestCommitLevelGating exercises Algorithm 4 line 43: a process that
// committed at level L must reject commit certificates from lower levels
// — the invariant Lemma 15's cross-phase case stands on.
func TestCommitLevelGating(t *testing.T) {
	f := newLevelFixture(t)
	v2 := types.Value("v2")
	v1 := types.Value("v1")
	leader2 := f.params.Leader(2) // p2
	leader3 := f.params.Leader(3) // p3

	// Phase 2 (rounds 6..10, ticks 5..9): the machine receives a level-2
	// commit from phase 2's leader just before round 4 of the phase
	// (tick 8) and must answer with a decide share.
	f.stepTo(7)
	outs := f.step(proto.Incoming{
		From:    leader2,
		Payload: Commit{Phase: 2, V: v2, Cert: f.commitCert(v2, 2), Level: 2},
	})
	if !decideShareSent(outs, v2, 2) {
		t.Fatal("valid level-2 commit did not produce a decide share")
	}

	// Phase 3 (ticks 10..14): a STALE level-1 certificate for a different
	// value arrives from phase 3's leader. Level 1 < committed level 2:
	// the machine must stay silent.
	f.stepTo(12)
	outs = f.step(proto.Incoming{
		From:    leader3,
		Payload: Commit{Phase: 3, V: v1, Cert: f.commitCert(v1, 1), Level: 1},
	})
	if decideShareSent(outs, v1, 3) {
		t.Fatal("stale lower-level commit harvested a decide share (Lemma 15 regression)")
	}
}

// TestCommitRejectsForgedAndMismatchedCerts covers the remaining guards
// of round 4: bad certificates, future levels, and leader binding.
func TestCommitRejectsForgedAndMismatchedCerts(t *testing.T) {
	cases := []struct {
		name  string
		build func(f *levelFixture) proto.Incoming
	}{
		{
			name: "forged certificate",
			build: func(f *levelFixture) proto.Incoming {
				return proto.Incoming{
					From: f.params.Leader(2),
					Payload: Commit{Phase: 2, V: types.Value("x"), Level: 2,
						Cert: &threshold.Cert{K: f.params.Quorum(), Signers: types.NewBitSet(9), Tag: []byte("junk")}},
				}
			},
		},
		{
			name: "level exceeds phase",
			build: func(f *levelFixture) proto.Incoming {
				return proto.Incoming{
					From:    f.params.Leader(2),
					Payload: Commit{Phase: 2, V: types.Value("x"), Cert: f.commitCert(types.Value("x"), 3), Level: 3},
				}
			},
		},
		{
			name: "cert level does not match claimed level",
			build: func(f *levelFixture) proto.Incoming {
				return proto.Incoming{
					From:    f.params.Leader(2),
					Payload: Commit{Phase: 2, V: types.Value("x"), Cert: f.commitCert(types.Value("x"), 1), Level: 2},
				}
			},
		},
		{
			name: "commit from a non-leader",
			build: func(f *levelFixture) proto.Incoming {
				return proto.Incoming{
					From:    7, // not phase 2's leader
					Payload: Commit{Phase: 2, V: types.Value("x"), Cert: f.commitCert(types.Value("x"), 2), Level: 2},
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newLevelFixture(t)
			f.stepTo(7)
			outs := f.step(tc.build(f))
			if decideShareSent(outs, types.Value("x"), 2) {
				t.Fatalf("%s: decide share produced", tc.name)
			}
			f.stepTo(9) // drain the rest of the phase
		})
	}
}

// TestFinalizedFromWrongLeaderStillSafe: Finalized messages are accepted
// from anyone because they are certificate-backed — but only with a VALID
// certificate for the claimed phase.
func TestFinalizedValidation(t *testing.T) {
	f := newLevelFixture(t)
	// Garbage certificate: no decision.
	f.step(proto.Incoming{
		From: 5,
		Payload: Finalized{Phase: 1, V: types.Value("x"),
			Cert: &threshold.Cert{K: f.params.Quorum(), Signers: types.NewBitSet(9), Tag: []byte("bad")}},
	})
	if _, ok := f.m.Output(); ok {
		t.Fatal("decided on a forged finalize certificate")
	}
	// A genuine certificate decides immediately, regardless of sender.
	scheme := f.crypto.Threshold(f.params.Quorum())
	base := DecideBase("lv", 1, types.Value("real"))
	var shares []threshold.Share
	for i := 0; i < f.params.Quorum(); i++ {
		sh, err := scheme.SignShare(types.ProcessID(i), base)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	cert, err := scheme.Combine(base, shares)
	if err != nil {
		t.Fatal(err)
	}
	f.step(proto.Incoming{
		From:    8,
		Payload: Finalized{Phase: 1, V: types.Value("real"), Cert: cert},
	})
	v, ok := f.m.Output()
	if !ok || !v.Equal(types.Value("real")) {
		t.Fatalf("valid finalize certificate not adopted: %v %v", v, ok)
	}
}
