package bb

import (
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// phaseSpray returns the vetting messages only phase q's leader accepts,
// from from and valid on their own: a Reply carrying the sender's genuine
// envelope and from's genuine idk share.
func phaseSpray(t testing.TB, crypto *proto.Crypto, params types.Params, sender, from types.ProcessID, q int) []proto.Payload {
	t.Helper()
	sg, err := crypto.Signer(sender).Sign(senderBase("t", sender, types.Value("v")))
	if err != nil {
		t.Fatal(err)
	}
	share, err := crypto.Threshold(params.SmallQuorum()).SignShare(from, idkBase("t", q))
	if err != nil {
		t.Fatal(err)
	}
	return []proto.Payload{
		Reply{Phase: q, Val: EncodeSenderValue(SenderValue{V: types.Value("v"), Sig: sg})},
		IdkShare{Phase: q, Share: share.Sig},
	}
}

// TestIngestDropsOutOfRangePhases: a Reply or IdkShare for a vetting
// phase outside 1..P (P = n) is dropped at ingest, before the envelope is
// validated or the share verified — no allocation, no stash entry — and a
// Byzantine spray of them leaves a run's decisions and honest traffic as
// they were.
func TestIngestDropsOutOfRangePhases(t *testing.T) {
	const n = 9 // P=9: the sprayed phases 0, 10, 18 and 1<<40 are led by p0, p1, p0, p7
	crypto, params := setup(t, n)
	phases := []int{0, n + 1, 2 * n, 1 << 40}

	t.Run("ingest", func(t *testing.T) {
		for _, q := range phases {
			leader := params.Leader(q)
			peer := types.ProcessID((int(leader) + 1) % n)
			m := NewMachine(Config{Params: params, Crypto: crypto, ID: leader, Sender: 0, Tag: "t"})
			for _, p := range phaseSpray(t, crypto, params, 0, peer, q) {
				in := proto.Incoming{From: peer, Payload: p}
				if allocs := testing.AllocsPerRun(20, func() { m.ingest(0, in) }); allocs != 0 {
					t.Errorf("phase %d %T: ingest allocated %.1f times", q, p, allocs)
				}
			}
			if m.stash.Len() != 0 {
				t.Errorf("phase %d: %d stash entries, want none", q, m.stash.Len())
			}
		}
	})

	t.Run("run", func(t *testing.T) {
		const byz = 8 // sprays every honest leader of the four phases
		var spray []sim.Message
		for _, q := range phases {
			for _, p := range phaseSpray(t, crypto, params, 0, byz, q) {
				for to := 0; to < n; to++ {
					spray = append(spray, sim.Message{From: byz, To: types.ProcessID(to), Payload: p})
				}
			}
		}
		quiet := runTraffic(t, crypto, params, adversary.NewCrash(byz))
		sprayed := runTraffic(t, crypto, params, &sprayAdversary{Core: adversary.NewCrash(byz).Core, msgs: spray})
		if !slices.Equal(quiet, sprayed) {
			t.Fatalf("the spray changed the run:\nquiet   %d lines\nsprayed %d lines", len(quiet), len(sprayed))
		}
	})
}

// sprayAdversary is a crash adversary whose processes send msgs on every
// tick.
type sprayAdversary struct {
	adversary.Core
	msgs []sim.Message
}

func (a *sprayAdversary) Act(types.Tick, []sim.Message) []sim.Message { return a.msgs }

// runTraffic runs BB from sender p0 with input "v" under adv and returns
// the honest traffic (tick, route and encoded payload) followed by every
// honest decision.
func runTraffic(t *testing.T, crypto *proto.Crypto, params types.Params, adv sim.Adversary) []string {
	t.Helper()
	reg := wire.NewRegistry()
	RegisterWire(reg)
	wba.RegisterWire(reg)
	var lines []string
	machines := make([]*Machine, params.N)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			machines[id] = NewMachine(Config{Params: params, Crypto: crypto, ID: id, Sender: 0, Input: types.Value("v"), Tag: "t"})
			return machines[id]
		},
		Adversary: adv,
		MaxTicks:  MaxTicks(params, 0, 0) * 2,
		OnSend: func(now types.Tick, m sim.Message, honest bool) {
			if !honest {
				return
			}
			frame, err := reg.EncodePayload(m.Payload)
			if err != nil {
				t.Error(err)
			}
			lines = append(lines, fmt.Sprintf("%d %v>%v %q %s", now, m.From, m.To, m.Session, hex.EncodeToString(frame)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	for _, id := range res.Honest {
		v, _ := machines[id].Output()
		lines = append(lines, fmt.Sprintf("%v decided %q at tick %d", id, v, machines[id].DecidedAtTick()))
	}
	return lines
}
