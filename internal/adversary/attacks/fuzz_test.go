package attacks

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzScheduleGenome pins the genome codec's three contracts:
//
//  1. Round-trip: every byte string Decode accepts re-encodes to the
//     identical bytes — the hex dump in a report or violation file IS
//     the schedule, with no lossy normalization in between.
//  2. Mutate determinism: mutating any decoded genome with two
//     identically-seeded rngs yields identical offspring — the whole
//     search replays from its seed.
//  3. Mutate copies: the parent is unchanged, so the explorer's
//     survivors may share storage with their offspring.
func FuzzScheduleGenome(f *testing.F) {
	// Corpus: empty schedule, the heuristic spam shape, a random draw,
	// and a mutated descendant.
	f.Add(Genome{}.Encode())
	f.Add(Genome{ShuffleSeed: -1, Corruptions: []Corrupt{
		{Slot: 1, Moves: []Move{{Op: OpProposeSpam}, {Op: OpHelpSpam}}},
		{Slot: 2, At: 3, Moves: []Move{{Op: OpEquivocate, Target: 1, Value: 7}}},
	}}.Encode())
	rng := rand.New(rand.NewSource(1))
	g := RandomGenome(rng, 4)
	f.Add(g.Encode())
	f.Add(Mutate(rng, g).Encode())
	// Malformed shapes Decode must reject without panicking.
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(data)
		if err != nil {
			return // malformed input: rejection is the contract
		}
		if got := g.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, got)
		}
		if _, err := DecodeHex(g.Hex()); err != nil {
			t.Fatalf("hex round-trip rejected: %v", err)
		}
		m1 := Mutate(rand.New(rand.NewSource(42)), g)
		m2 := Mutate(rand.New(rand.NewSource(42)), g)
		if !bytes.Equal(m1.Encode(), m2.Encode()) {
			t.Fatalf("same-seed mutation diverged:\n %x\n %x", m1.Encode(), m2.Encode())
		}
		if got := g.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("Mutate changed its parent:\n was %x\n now %x", data, got)
		}
		// Mutation output must itself round-trip (offspring stay encodable).
		if _, err := Decode(m1.Encode()); err != nil {
			t.Fatalf("mutated genome does not decode: %v", err)
		}
	})
}
