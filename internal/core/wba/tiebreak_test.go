package wba

import (
	"slices"
	"testing"

	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// The tie-breaks an equivocating run can reach: which of two certifiable
// values a leader picks, and in which order help answers go out. How the
// stashes store shares and requests must not move either.

// tieMachine is one weak BA machine at n=9 (t=4, quorum 7, P=5) with
// identity id, begun at tick 0, and the quorum scheme to sign shares with.
func tieMachine(t *testing.T, id types.ProcessID) (*Machine, *threshold.Scheme, types.Params) {
	t.Helper()
	params, err := types.NewParams(9)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(9, []byte("tie-test"))
	if err != nil {
		t.Fatal(err)
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
	m := NewMachine(Config{
		Params: params, Crypto: crypto, ID: id,
		Input: types.Value("own"), Predicate: valid.NonBottom(), Tag: "tie",
	})
	m.Begin(0, nil)
	return m, crypto.Threshold(params.Quorum()), params
}

// shareMsgs returns one message per signer in from, each carrying that
// signer's share over base, made by mk.
func shareMsgs(t *testing.T, q *threshold.Scheme, base []byte, from []types.ProcessID, mk func(sig.Signature) proto.Payload) []proto.Incoming {
	t.Helper()
	var in []proto.Incoming
	for _, id := range from {
		sh, err := q.SignShare(id, base)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, proto.Incoming{From: id, Payload: mk(sh.Sig)})
	}
	return in
}

// TestLeaderCertifiesLowerValue: phase 1's leader holding a quorum of vote
// shares, and later of decide shares, for two values certifies the one
// lower in byte order, whichever arrived first.
func TestLeaderCertifiesLowerValue(t *testing.T) {
	m, q, params := tieMachine(t, 1) // p1 leads phase 1
	signers := []types.ProcessID{0, 2, 3, 4, 5, 6, 7}
	hi, lo := types.Value("zz"), types.Value("za")

	// Round 2 (tick 1): the leader's own proposal arrives; it votes.
	m.Tick(1, []proto.Incoming{{From: 1, Payload: Propose{Phase: 1, V: types.Value("own")}}}, nil)

	// Round 3 (tick 2): quorums for hi, then for lo.
	var votes []proto.Incoming
	for _, v := range []types.Value{hi, lo} {
		votes = append(votes, shareMsgs(t, q, VoteBase("tie", 1, v), signers, func(s sig.Signature) proto.Payload {
			return Vote{Phase: 1, V: v, Share: s}
		})...)
	}
	outs := m.Tick(2, votes, nil)
	if len(outs) != params.N {
		t.Fatalf("round 3 sent %d messages, want a broadcast of %d", len(outs), params.N)
	}
	if c, ok := outs[0].Payload.(Commit); !ok || !c.V.Equal(lo) || c.Level != 1 {
		t.Fatalf("round 3 sent %#v, want a level-1 commit for %q", outs[0].Payload, lo)
	}

	// Round 4 (tick 3) passes; round 5 (tick 4): decide quorums, hi first.
	m.Tick(3, nil, nil)
	var decides []proto.Incoming
	for _, v := range []types.Value{hi, lo} {
		decides = append(decides, shareMsgs(t, q, DecideBase("tie", 1, v), signers, func(s sig.Signature) proto.Payload {
			return Decide{Phase: 1, V: v, Share: s}
		})...)
	}
	outs = m.Tick(4, decides, nil)
	if len(outs) != params.N {
		t.Fatalf("round 5 sent %d messages, want a broadcast of %d", len(outs), params.N)
	}
	if f, ok := outs[0].Payload.(Finalized); !ok || !f.V.Equal(lo) {
		t.Fatalf("round 5 sent %#v, want a finalize certificate for %q", outs[0].Payload, lo)
	}
}

// TestHelpAnswersInArrivalOrder: a decided process answers help requests
// in the order they arrived, once per requester, and never itself.
func TestHelpAnswersInArrivalOrder(t *testing.T) {
	m, q, params := tieMachine(t, 0)
	small := m.small

	// Decide at tick 1 from a valid finalize certificate.
	base := DecideBase("tie", 1, types.Value("dec"))
	var shares []threshold.Share
	for id := types.ProcessID(0); int(id) < params.Quorum(); id++ {
		sh, err := q.SignShare(id, base)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	cert, err := q.Combine(base, shares)
	if err != nil {
		t.Fatal(err)
	}
	m.Tick(1, []proto.Incoming{{From: 8, Payload: Finalized{Phase: 1, V: types.Value("dec"), Cert: cert}}}, nil)
	if _, ok := m.Output(); !ok {
		t.Fatal("valid finalize certificate did not decide")
	}

	req := func(ids ...types.ProcessID) []proto.Incoming {
		return shareMsgs(t, small, HelpReqBase("tie"), ids, func(s sig.Signature) proto.Payload { return HelpReq{Share: s} })
	}
	helpA := types.Tick(m.phases * roundsPerPhase) // help round A's tick
	for now := types.Tick(2); now < helpA; now++ {
		m.Tick(now, nil, nil)
	}
	m.Tick(helpA, req(6, 2, 0, 8), nil)
	outs := m.Tick(helpA+1, req(3, 6, 5), nil) // round B

	var to []types.ProcessID
	for _, o := range outs {
		if _, ok := o.Payload.(Help); ok {
			to = append(to, o.To)
		}
	}
	if want := []types.ProcessID{6, 2, 8, 3, 5}; !slices.Equal(to, want) {
		t.Fatalf("help answers went to %v, want %v", to, want)
	}
}
