package attacks

import (
	"testing"

	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// TestFloodResendsTheNewestAfterTheTapeWraps fills the replay tape past
// its maxRecorded bound, so the ring overwrites its oldest entries, and
// requires a flood to re-broadcast the newest recorded payload, not the
// stale one in the tape's last slot.
func TestFloodResendsTheNewestAfterTheTapeWraps(t *testing.T) {
	params, err := types.NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	g := Genome{Corruptions: []Corrupt{{Slot: 1, Moves: []Move{{Op: OpFlood, Arg: 1}}}}}
	adv := Compile(g, protocols.WBA, "tag", 1, 100)
	adv.Init(sim.Env{Params: params})
	honest := make([]sim.Message, maxRecorded+10)
	for i := range honest {
		honest[i] = sim.Message{From: 0, To: 2, Payload: wba.Propose{Phase: i}}
	}
	adv.Act(0, honest)
	flood := adv.Act(1, nil)
	if len(flood) != params.N {
		t.Fatalf("flood sent %d messages, want %d", len(flood), params.N)
	}
	for _, m := range flood {
		if p, ok := m.Payload.(wba.Propose); !ok || p.Phase != len(honest)-1 {
			t.Fatalf("flood re-sent %+v, want the newest recording (phase %d)", m.Payload, len(honest)-1)
		}
	}
}

// TestCoalitionSignsOnlyWhomItHasCorrupted runs the split vote at the
// naive t+1 quorum with two of the four coalition members corrupted only
// at tick 3, after phase 1's commit is minted at tick 2. Without their
// signatures the face of the two-process half gathers 2 correct votes and
// 2 coalition shares, short of 5, so no second commit exists and
// agreement holds; with all four from tick 0 the halves disagree
// (TestSplitVoteBreaksNaiveQuorum).
func TestCoalitionSignsOnlyWhomItHasCorrupted(t *testing.T) {
	params, _ := types.NewParams(9)
	split := Move{Op: OpLead, Count: 1, Arg: 1, Target: 1}
	g := Genome{Corruptions: []Corrupt{{Slot: 1, Moves: []Move{split}}, {Slot: 8}, {Slot: 7, At: 3}, {Slot: 6, At: 3}}}
	res, _ := runWBA(t, 9, "q", types.Value("honest"), params.SmallQuorum(), Compile(g, protocols.WBA, "q", 1, 2000), nil)
	if v, ok := res.Agreement(); !res.AllDecided() || !ok {
		t.Fatalf("all decided %t, agreement %v %t: the coalition signed for processes it had not corrupted", res.AllDecided(), v, ok)
	}
}
