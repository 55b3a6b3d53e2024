// Package attacks contains protocol-aware Byzantine behaviours. They live
// apart from the generic package adversary because they import the
// protocol packages (the generic behaviours are protocol-agnostic).
//
// Most attacks are data: a Genome encodes corruption timing,
// equivocation and selective targets, help-spam patterns, replay/flood
// choices, and the message-delivery order in a compact byte form, and
// Compile turns it into a sim.Adversary for one run. The schedule
// explorer (internal/explore) searches genomes; the fixed attacks the
// harness and the tests run are genomes too (PhaseSpam). Behaviours the
// genes cannot express are hand-written: BB vetting equivocation, flood
// chains, and one weak BA coalition, WBALeader, whose corrupted phase-1
// leader mints certificates from the shares it collects (the split vote
// and the selective finalize) and which can release a fallback
// certificate late.
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
