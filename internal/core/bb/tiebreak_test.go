package bb

import (
	"slices"
	"testing"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// TestIdkCertSignersAscending: the idk certificate a vetting leader forms
// lists its signers in ascending order, whatever order their shares
// arrived in, and a signer's repeated share counts once. Aggregate mode,
// so the component shares are visible.
func TestIdkCertSignersAscending(t *testing.T) {
	const n = 9 // t=4: t+1 = 5 shares certify
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("bb-tie"))
	if err != nil {
		t.Fatal(err)
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeAggregate, nil)
	leader := params.Leader(1)
	m := NewMachine(Config{Params: params, Crypto: crypto, ID: leader, Sender: 0, Tag: "t"})
	m.Begin(0, nil)

	// Tick 1 (phase 1, round 1): no sender value, so the leader asks.
	if outs := m.Tick(1, nil, nil); len(outs) != n {
		t.Fatalf("leader sent %d messages, want a help_req broadcast", len(outs))
	}
	// Tick 2 (round 2): its own request arrives; it answers idk itself.
	m.Tick(2, []proto.Incoming{{From: leader, Payload: HelpReq{Phase: 1}}}, nil)

	// Tick 3 (round 3): shares arrive out of signer order, one twice.
	small := crypto.Threshold(params.SmallQuorum())
	base := idkBase("t", 1)
	var inbox []proto.Incoming
	for _, id := range []types.ProcessID{7, leader, 4, 0, 7, 3} {
		sh, err := small.SignShare(id, base)
		if err != nil {
			t.Fatal(err)
		}
		inbox = append(inbox, proto.Incoming{From: id, Payload: IdkShare{Phase: 1, Share: sh.Sig}})
	}
	outs := m.Tick(3, inbox, nil)
	if len(outs) != n {
		t.Fatalf("leader sent %d messages, want a vetted broadcast", len(outs))
	}
	vet, ok := outs[0].Payload.(Vetted)
	if !ok || vet.Phase != 1 {
		t.Fatalf("leader sent %#v, want a phase-1 vetted value", outs[0].Payload)
	}
	_, idk, err := DecodeValue(vet.Val)
	if err != nil || idk == nil {
		t.Fatalf("vetted value is not an idk certificate: %v", err)
	}
	want := []types.ProcessID{0, leader, 3, 4, 7}
	if got := idk.Cert.Signers.Members(); !slices.Equal(got, want) {
		t.Fatalf("idk certificate signers %v, want %v", got, want)
	}
	for i, id := range want {
		if !ring.Verify(id, base, idk.Cert.Shares[i]) {
			t.Errorf("certificate share %d is not signer %v's", i, id)
		}
	}
}
