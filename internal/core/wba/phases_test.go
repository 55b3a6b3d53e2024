package wba

import (
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// outOfRange returns phases no run with P phases has: below the first,
// just past the last, past the last with phase P's leader, and far out.
func outOfRange(params types.Params, phases int) []int {
	return []int{0, phases + 1, phases + params.N, 1 << 40}
}

// phaseSpray returns every round-gated message from would-be sender from
// for phase q, each carrying from's genuine share or a genuine level-1
// commit certificate: Propose and Commit (accepted only from q's leader)
// and Vote, CommitInfo and Decide (accepted only by q's leader).
func phaseSpray(t testing.TB, crypto *proto.Crypto, params types.Params, tag string, from types.ProcessID, q int) []proto.Payload {
	t.Helper()
	v := types.Value("spray")
	quorum := crypto.Threshold(params.Quorum())
	share := func(base []byte) []byte {
		sh, err := quorum.SignShare(from, base)
		if err != nil {
			t.Fatal(err)
		}
		return sh.Sig
	}
	var shares []threshold.Share
	for id := 0; id < params.Quorum(); id++ {
		sh, err := quorum.SignShare(types.ProcessID(id), VoteBase(tag, 1, v))
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	cert, err := quorum.Combine(VoteBase(tag, 1, v), shares)
	if err != nil {
		t.Fatal(err)
	}
	return []proto.Payload{
		Propose{Phase: q, V: v},
		Commit{Phase: q, V: v, Cert: cert, Level: 1},
		Vote{Phase: q, V: v, Share: share(VoteBase(tag, q, v))},
		CommitInfo{Phase: q, V: v, Cert: cert, Level: 1},
		Decide{Phase: q, V: v, Share: share(DecideBase(tag, q, v))},
	}
}

// TestIngestDropsOutOfRangePhases: a round-gated message for a phase
// outside 1..P is dropped at ingest, before any sign base is encoded or
// share verified — no allocation, no stash entry — and a Byzantine spray
// of them leaves a run's decisions and honest traffic as they were.
func TestIngestDropsOutOfRangePhases(t *testing.T) {
	const n = 21 // t=10, P=11: the sprayed phases' leaders are p0, p12, p11, p16
	crypto, params := setup(t, n)
	phases := params.T + 1

	t.Run("ingest", func(t *testing.T) {
		for _, q := range outOfRange(params, phases) {
			leader := params.Leader(q)
			peer := types.ProcessID((int(leader) + 1) % n)
			m := NewMachine(Config{
				Params: params, Crypto: crypto, ID: leader,
				Input: types.Value("v"), Predicate: valid.NonBottom(), Tag: "t",
			})
			for _, p := range phaseSpray(t, crypto, params, "t", peer, q) {
				in := proto.Incoming{From: peer, Payload: p}
				switch p.(type) {
				case Propose, Commit:
					in.From = leader // accepted only from the phase's leader
				}
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
		// p0 and p11 lead phases 0 and P+n, so their Propose and Commit
		// pass the sender check; p12 and p16, honest, lead P+1 and 1<<40,
		// so the Vote, CommitInfo and Decide sent to them pass theirs.
		corrupt := []types.ProcessID{0, 11}
		var spray []sim.Message
		for _, from := range corrupt {
			for _, q := range outOfRange(params, phases) {
				for _, p := range phaseSpray(t, crypto, params, "t", from, q) {
					for to := 0; to < n; to++ {
						spray = append(spray, sim.Message{From: from, To: types.ProcessID(to), Payload: p})
					}
				}
			}
		}
		quiet := runTraffic(t, crypto, params, adversary.NewCrash(corrupt...))
		sprayed := runTraffic(t, crypto, params, &sprayAdversary{Core: adversary.NewCrash(corrupt...).Core, msgs: spray})
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

// runTraffic runs weak BA with valid input "v" everywhere under adv and
// returns the honest traffic (tick, route and encoded payload) followed by
// every honest decision.
func runTraffic(t *testing.T, crypto *proto.Crypto, params types.Params, adv sim.Adversary) []string {
	t.Helper()
	reg := wire.NewRegistry()
	RegisterWire(reg)
	var lines []string
	machines := make([]*Machine, params.N)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			machines[id] = NewMachine(Config{
				Params: params, Crypto: crypto, ID: id,
				Input: types.Value("v"), Predicate: valid.NonBottom(), Tag: "t",
			})
			return machines[id]
		},
		Adversary: adv,
		MaxTicks:  MaxTicks(params, 0) * 2,
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
		lines = append(lines, fmt.Sprintf("%v decided %q at phase %d, tick %d", id, v, machines[id].DecidedAtPhase(), machines[id].DecidedAtTick()))
	}
	return lines
}
