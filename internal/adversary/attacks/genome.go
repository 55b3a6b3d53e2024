package attacks

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// Op selects one adversarial move. Protocol-specific ops degrade
// gracefully: an op that does not apply to the run's protocol emits
// nothing (a silent gene), which keeps every genome valid for every
// protocol and lets crossover carry genes between protocol runs.
type Op uint8

// Move operations.
const (
	// OpSilence does nothing: the corrupted process simply stays mute
	// (crash-like, the cheap case the adaptive protocols optimize for).
	OpSilence Op = iota
	// OpProposeSpam initiates a rotating-leader phase from the corrupted
	// process and ignores the answers — the run family behind the paper's
	// O(n(f+1)) bound. WBA: a Propose for phase 1+Arg%(t+1). BB: a
	// vetting-phase HelpReq for phase 1+Arg%n.
	OpProposeSpam
	// OpEquivocate plays a phase leader two-faced: proposal v1 to the
	// even-ranked correct processes, v2 to the odd-ranked (WBA), or the
	// captured sender envelope to only half the processes (BB) — the
	// split/selective target family.
	OpEquivocate
	// OpHelpSpam spends the help path: WBA corrupted processes sign and
	// broadcast help requests even though they could decide (each decided
	// correct process answers, Θ(n) words per requester); BB spams the
	// nested weak BA with the captured (valid!) sender envelope.
	OpHelpSpam
	// OpReplay re-sends Count recorded honest payloads from the corrupted
	// identity to pseudorandom targets at the move's tick (freshness
	// attack; certificates and phase tags must withstand it).
	OpReplay
	// OpFlood re-broadcasts the most recently recorded honest payload to
	// every process (a burst of stale traffic at a searched tick).
	OpFlood

	opCount // number of ops; keep last
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpSilence:
		return "silence"
	case OpProposeSpam:
		return "propose-spam"
	case OpEquivocate:
		return "equivocate"
	case OpHelpSpam:
		return "help-spam"
	case OpReplay:
		return "replay"
	case OpFlood:
		return "flood"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Move is one adversarial action gene. Field interpretation is op- and
// protocol-dependent (see the Op docs); all fields are clamped/reduced
// modulo the run's parameters at compile time, so every byte pattern is
// a valid move.
type Move struct {
	Op Op
	// Arg selects a phase (phase-driven ops) or a raw tick (replay/flood).
	Arg uint8
	// Target selects the victim / target half (equivocate, replay).
	Target uint8
	// Value selects the proposal value (0 = the honest value, else a
	// conflicting-but-valid second value).
	Value uint8
	// Count is the repetition count for replay bursts (clamped to 1..8).
	Count uint8
}

// Corrupt is one corruption gene: which process the adversary takes over,
// when, and what it does.
type Corrupt struct {
	// Slot selects the corrupted process (reduced modulo n and probed to
	// the next free id at compile time, so slots never collide).
	Slot uint8
	// At is the corruption tick (clamped to the schedule horizon). Before
	// At the process runs the honest protocol — corruption *timing* is
	// part of the search space.
	At    uint8
	Moves []Move
}

// Genome is one complete adversary schedule plus the delivery-order
// choice. It is a pure value: compiling it against run parameters
// (protocol, n, t, horizon) yields the executable schedule.
type Genome struct {
	// ShuffleSeed permutes per-tick message delivery order (sim.Config.
	// ShuffleSeed): within one tick the adversary controls arrival order,
	// so the delivery permutation is a searched gene, not a constant.
	ShuffleSeed int64
	Corruptions []Corrupt
}

// Genome encoding limits. Decode rejects anything beyond them, which
// bounds the work any byte string can demand.
const (
	genomeVersion    = 1
	maxCorruptions   = 64
	maxMovesPerSlot  = 8
	genomeHeaderLen  = 1 + 8 + 1 // version + shuffle seed + corruption count
	corruptHeaderLen = 3         // slot + at + move count
	moveLen          = 5
)

// ErrGenome reports a malformed genome encoding.
var ErrGenome = errors.New("attacks: malformed genome")

// Encode serializes the genome to its canonical byte form.
func (g Genome) Encode() []byte {
	size := genomeHeaderLen
	for _, c := range g.Corruptions {
		size += corruptHeaderLen + moveLen*len(c.Moves)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, genomeVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(g.ShuffleSeed))
	buf = append(buf, byte(len(g.Corruptions)))
	for _, c := range g.Corruptions {
		buf = append(buf, c.Slot, c.At, byte(len(c.Moves)))
		for _, m := range c.Moves {
			buf = append(buf, byte(m.Op), m.Arg, m.Target, m.Value, m.Count)
		}
	}
	return buf
}

// Decode parses a canonical genome encoding. Every accepted byte string
// round-trips: Decode(b).Encode() == b (FuzzScheduleGenome pins this).
func Decode(b []byte) (Genome, error) {
	var g Genome
	if len(b) < genomeHeaderLen {
		return g, fmt.Errorf("%w: %d bytes", ErrGenome, len(b))
	}
	if b[0] != genomeVersion {
		return g, fmt.Errorf("%w: version %d", ErrGenome, b[0])
	}
	g.ShuffleSeed = int64(binary.BigEndian.Uint64(b[1:9]))
	nc := int(b[9])
	if nc > maxCorruptions {
		return g, fmt.Errorf("%w: %d corruptions", ErrGenome, nc)
	}
	rest := b[genomeHeaderLen:]
	for i := 0; i < nc; i++ {
		if len(rest) < corruptHeaderLen {
			return g, fmt.Errorf("%w: truncated corruption %d", ErrGenome, i)
		}
		c := Corrupt{Slot: rest[0], At: rest[1]}
		nm := int(rest[2])
		rest = rest[corruptHeaderLen:]
		if nm > maxMovesPerSlot {
			return g, fmt.Errorf("%w: %d moves", ErrGenome, nm)
		}
		if len(rest) < nm*moveLen {
			return g, fmt.Errorf("%w: truncated moves of corruption %d", ErrGenome, i)
		}
		for j := 0; j < nm; j++ {
			mv := Move{Op: Op(rest[0]), Arg: rest[1], Target: rest[2], Value: rest[3], Count: rest[4]}
			if mv.Op >= opCount {
				return g, fmt.Errorf("%w: op %d", ErrGenome, mv.Op)
			}
			c.Moves = append(c.Moves, mv)
			rest = rest[moveLen:]
		}
		g.Corruptions = append(g.Corruptions, c)
	}
	if len(rest) != 0 {
		return g, fmt.Errorf("%w: %d trailing bytes", ErrGenome, len(rest))
	}
	return g, nil
}

// Hex is the genome dump format used in reports and testdata: the
// canonical encoding in hexadecimal.
func (g Genome) Hex() string { return hex.EncodeToString(g.Encode()) }

// DecodeHex parses a Hex dump.
func DecodeHex(s string) (Genome, error) {
	b, err := hex.DecodeString(strings.TrimSpace(s))
	if err != nil {
		return Genome{}, fmt.Errorf("%w: %v", ErrGenome, err)
	}
	return Decode(b)
}

// String renders a compact human-readable schedule summary.
func (g Genome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shuffle=%d", g.ShuffleSeed)
	for _, c := range g.Corruptions {
		fmt.Fprintf(&b, " [p~%d@t%d:", c.Slot, c.At)
		for j, m := range c.Moves {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s(a%d,t%d,v%d,c%d)", m.Op, m.Arg, m.Target, m.Value, m.Count)
		}
		b.WriteByte(']')
	}
	return b.String()
}

// clone deep-copies the genome so mutation never aliases a survivor.
func (g Genome) clone() Genome {
	out := Genome{ShuffleSeed: g.ShuffleSeed, Corruptions: make([]Corrupt, len(g.Corruptions))}
	for i, c := range g.Corruptions {
		out.Corruptions[i] = Corrupt{Slot: c.Slot, At: c.At, Moves: append([]Move(nil), c.Moves...)}
	}
	return out
}

// randomMove draws a uniformly random move gene.
func randomMove(rng *rand.Rand) Move {
	return Move{
		Op:     Op(rng.Intn(int(opCount))),
		Arg:    uint8(rng.Intn(256)),
		Target: uint8(rng.Intn(256)),
		Value:  uint8(rng.Intn(256)),
		Count:  uint8(rng.Intn(256)),
	}
}

// RandomGenome draws a schedule with exactly f corruption genes, each
// carrying 1–3 random moves.
func RandomGenome(rng *rand.Rand, f int) Genome {
	if f > maxCorruptions {
		f = maxCorruptions
	}
	g := Genome{ShuffleSeed: rng.Int63()}
	for i := 0; i < f; i++ {
		c := Corrupt{Slot: uint8(rng.Intn(256)), At: uint8(rng.Intn(8))}
		for m := 1 + rng.Intn(3); m > 0; m-- {
			c.Moves = append(c.Moves, randomMove(rng))
		}
		g.Corruptions = append(g.Corruptions, c)
	}
	return g
}

// Mutate returns a copy of the genome with one random point change.
// Mutation is deterministic in the rng state: two explorers advancing
// identical rngs over identical genomes produce identical offspring
// (FuzzScheduleGenome pins this).
func Mutate(rng *rand.Rand, g Genome) Genome {
	out := g.clone()
	if len(out.Corruptions) == 0 {
		// Only the delivery order is searchable for f=0 schedules.
		out.ShuffleSeed = rng.Int63()
		return out
	}
	switch rng.Intn(6) {
	case 0: // re-draw the delivery permutation
		out.ShuffleSeed = rng.Int63()
	case 1: // move a corruption to another process
		c := &out.Corruptions[rng.Intn(len(out.Corruptions))]
		c.Slot = uint8(rng.Intn(256))
	case 2: // shift a corruption in time
		c := &out.Corruptions[rng.Intn(len(out.Corruptions))]
		c.At = uint8(rng.Intn(256))
	case 3: // point-mutate one field of one move
		c := &out.Corruptions[rng.Intn(len(out.Corruptions))]
		if len(c.Moves) == 0 {
			c.Moves = append(c.Moves, randomMove(rng))
			break
		}
		m := &c.Moves[rng.Intn(len(c.Moves))]
		switch rng.Intn(5) {
		case 0:
			m.Op = Op(rng.Intn(int(opCount)))
		case 1:
			m.Arg = uint8(rng.Intn(256))
		case 2:
			m.Target = uint8(rng.Intn(256))
		case 3:
			m.Value = uint8(rng.Intn(256))
		case 4:
			m.Count = uint8(rng.Intn(256))
		}
	case 4: // grow a schedule
		c := &out.Corruptions[rng.Intn(len(out.Corruptions))]
		if len(c.Moves) < maxMovesPerSlot {
			c.Moves = append(c.Moves, randomMove(rng))
		}
	case 5: // shrink a schedule
		c := &out.Corruptions[rng.Intn(len(out.Corruptions))]
		if len(c.Moves) > 0 {
			i := rng.Intn(len(c.Moves))
			c.Moves = append(c.Moves[:i], c.Moves[i+1:]...)
		}
	}
	return out
}
