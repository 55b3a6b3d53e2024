// Package attacks contains protocol-aware Byzantine behaviours. They live
// apart from the generic package adversary because they import the
// protocol packages (the generic behaviours are protocol-agnostic).
//
// Every attack is data: a Genome encodes corruption timing,
// equivocation and selective targets, help-spam patterns, replay/flood
// choices, a corrupted weak BA phase leader that mints certificates from
// the shares it collects (the split vote and the selective finalize), a
// late fallback certificate release, BB's sender and vetting leaders
// handing out two valid values, FloodSet's mid-broadcast crashes, and
// the message-delivery order in a compact byte form, and Compile turns
// it into a sim.Adversary for one run. The schedule explorer
// (internal/explore) searches genomes; the fixed attacks the harness and
// the tests run are genomes too (PhaseSpam, Coalition, Vetting,
// WhisperChain).
//
// The headline attack is phase spam: corrupted processes initiate their
// rotating-leader phases — asking every correct process for help or votes
// — and then ignore the answers, so each corrupted leader burns Θ(n)
// honest words without making progress. This is exactly the run family
// behind the paper's O(n(f+1)) upper bound; with plain crashes the
// adaptive protocols stay at O(n) regardless of f, because a crashed
// leader's phase is silent.
package attacks

import (
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

// PhaseSpam is the phase-spam genome for a BB or weak BA run: each
// corrupted p_j (corrupted from tick 0) opens the rotating-leader phase
// it leads and ignores the answers. Weak BA: p_j proposes "v" in phase j.
// BB: p_j sends a help request in vetting phase j and, once it has seen
// the sender's signed value, proposes that (BB_valid) envelope in phase j
// of the nested weak BA. A p_j with j = 0 or past the protocol's phases
// reduces modulo them like any gene; slots and phases are bytes, so ids
// above 255 cannot be expressed.
func PhaseSpam(protocol protocols.Kind, ids ...types.ProcessID) Genome {
	var g Genome
	for _, id := range ids {
		moves := []Move{{Op: OpProposeSpam, Arg: uint8(id - 1)}}
		if protocol == protocols.BB {
			moves = append(moves, Move{Op: OpHelpSpam, Arg: uint8(id - 1)})
		}
		g.Corruptions = append(g.Corruptions, Corrupt{Slot: uint8(id), Moves: moves})
	}
	return g
}

// Coalition is the weak BA coalition genome at n with f ≥ 1 corruptions
// from tick 0: p1, the phase-1 leader, making moves (OpLead, OpRelease),
// and the top f − 1 ids, silent but signing every certificate the
// coalition mints. Slots are bytes, so n above 256 is not expressed.
func Coalition(n, f int, moves ...Move) Genome {
	g := Genome{Corruptions: []Corrupt{{Slot: 1, Moves: moves}}}
	for id := n - 1; len(g.Corruptions) < f; id-- {
		g.Corruptions = append(g.Corruptions, Corrupt{Slot: uint8(id)})
	}
	return g
}

// Vetting is the BB vetting coalition genome from tick 0: the sender p0
// and p1, the leader of vetting phase 1, each making lead (an OpLead
// move). With two faces (odd Count) the correct processes enter the
// weak BA with two different sender-signed values, the case unique
// validity (Definition 3) must absorb: the run may decide either face or
// ⊥, but never split.
func Vetting(lead Move) Genome {
	return Genome{Corruptions: []Corrupt{{Slot: 0, Moves: []Move{lead}}, {Slot: 1, Moves: []Move{lead}}}}
}

// WhisperChain is FloodSet's Θ(f)-round chain, the classic lower bound
// for early-stopping crash consensus: link k = p_k (1 ≤ k ≤ f) runs
// correctly until round k (tick k − 1), then crashes mid-broadcast, its
// last flood carrying the face "v" to link k+1 alone, and the last
// link's to p0.
// Every round exposes one fresh failure, so the clean-round rule cannot
// fire before round f+1; only then does "v", the minimum if the honest
// inputs sort above it, surface at a correct process and spread.
func WhisperChain(f int) Genome {
	var g Genome
	for k := 1; k <= f; k++ {
		g.Corruptions = append(g.Corruptions, Corrupt{Slot: uint8(k), At: uint8(k - 1),
			Moves: []Move{{Op: OpEquivocate, Target: uint8((k + 1) % (f + 1))}}})
	}
	return g
}
