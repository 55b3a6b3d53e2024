package kv

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"adaptiveba/internal/types"
)

func TestApplyBasics(t *testing.T) {
	s := NewStore()
	steps := []struct {
		cmd     string
		wantErr bool
	}{
		{cmd: "SET a 1"},
		{cmd: "SET b 2"},
		{cmd: "DEL a"},
		{cmd: "CAS b 2 3"},
		{cmd: "CAS b 99 100"}, // mismatch: no-op, still valid
		{cmd: "NOPE x", wantErr: true},
		{cmd: "SET toofew", wantErr: true},
		{cmd: "DEL a b", wantErr: true},
		{cmd: "CAS a b", wantErr: true},
		{cmd: "   ", wantErr: true},
	}
	for _, st := range steps {
		err := s.Apply(types.Value(st.cmd))
		if st.wantErr != (err != nil) {
			t.Errorf("Apply(%q) err = %v", st.cmd, err)
		}
		if err != nil && !errors.Is(err, ErrBadCommand) {
			t.Errorf("Apply(%q) err type: %v", st.cmd, err)
		}
	}
	if _, ok := s.Get("a"); ok {
		t.Error("a survived DEL")
	}
	if v, _ := s.Get("b"); v != "3" {
		t.Errorf("b = %q, want 3 (CAS applied once)", v)
	}
	if s.Applied() != len(steps) {
		t.Errorf("Applied = %d", s.Applied())
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestBottomSlotIsNoOp(t *testing.T) {
	s := NewStore()
	if err := s.Apply(types.Bottom); err != nil {
		t.Errorf("⊥ slot errored: %v", err)
	}
	if s.Applied() != 1 || s.Len() != 0 {
		t.Errorf("state after ⊥: applied=%d len=%d", s.Applied(), s.Len())
	}
}

func TestHashCanonical(t *testing.T) {
	a, b := NewStore(), NewStore()
	// Same final state via different histories.
	for _, c := range []string{"SET x 1", "SET y 2", "DEL x", "SET x 3"} {
		if err := a.Apply(types.Value(c)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"SET y 2", "SET x 3"} {
		if err := b.Apply(types.Value(c)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Hash() != b.Hash() {
		t.Error("equal states hash differently")
	}
	if err := b.Apply(types.Value("SET z 9")); err != nil {
		t.Fatal(err)
	}
	if a.Hash() == b.Hash() {
		t.Error("different states hash equal")
	}
}

// fmtHash is Hash written with fmt, the reference its byte stream must
// match.
func fmtHash(s *Store) string {
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d:%s=%d:%s;", len(k), k, len(s.data[k]), s.data[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestHashMatchesReference pins Hash to the fmt reference over random
// stores whose keys and values use the separator bytes and may be empty,
// and to one recorded digest.
func TestHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = ":=;ab9 \x00é"
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 200; i++ {
		s := NewStore()
		for k := rng.Intn(40); k > 0; k-- {
			s.data[str()] = str()
		}
		if got, want := s.Hash(), fmtHash(s); got != want {
			t.Fatalf("store %d (%q): Hash %s, reference %s", i, s.data, got, want)
		}
	}
	s := NewStore()
	s.data[""] = ""
	s.data["a:b"] = "=;"
	s.data["k"] = strings.Repeat("v", 300)
	if got, want := s.Hash(), "ecd444f64287c8ff8a895725c9f3261f"; got != want {
		t.Errorf("Hash = %s, recorded %s", got, want)
	}
}

func TestSnapshotIsolated(t *testing.T) {
	s := NewStore()
	if err := s.Apply(types.Value("SET k v")); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	snap["k"] = "tampered"
	if v, _ := s.Get("k"); v != "v" {
		t.Error("snapshot aliases store")
	}
}

func TestReplayCollectsRejections(t *testing.T) {
	entries := []Entry{
		{Slot: 0, Command: types.Value("SET a 1")},
		{Slot: 1, Command: types.Bottom},
		{Slot: 2, Command: types.Value("garbage from byzantine proposer")},
		{Slot: 3, Command: types.Value("SET b 2")},
	}
	s, rejected := Replay(entries)
	if len(rejected) != 1 {
		t.Fatalf("rejected: %v", rejected)
	}
	if s.Len() != 2 || s.Applied() != 4 {
		t.Errorf("len=%d applied=%d", s.Len(), s.Applied())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	for _, c := range []string{"SET a 1", "SET b 2", "CAS b 2 3", "DEL a", "SET c 4"} {
		if err := s.Apply(types.Value(c)); err != nil {
			t.Fatal(err)
		}
	}
	back, err := DecodeSnapshot(s.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != s.Hash() {
		t.Errorf("hash mismatch after round trip: %s vs %s", back.Hash(), s.Hash())
	}
	if back.Applied() != s.Applied() {
		t.Errorf("applied mismatch: %d vs %d", back.Applied(), s.Applied())
	}
}

// TestSnapshotTruncateReplay is the log-truncation correctness property a
// long-running service rests on: snapshot at a prefix, drop the prefix,
// replay only the suffix on the decoded snapshot — same state hash as
// replaying the whole log from genesis.
func TestSnapshotTruncateReplay(t *testing.T) {
	log := []Entry{
		{Slot: 0, Command: types.Value("SET a 1")},
		{Slot: 1, Command: types.Value("SET b 2")},
		{Slot: 2, Command: types.Value("CAS a 1 10")},
		{Slot: 3, Command: types.Value("DEL b")},
		{Slot: 4, Command: types.Value("SET c 3")},
		{Slot: 5, Command: types.Value("SET a final")},
	}
	full, _ := Replay(log)

	// Snapshot after the first 3 entries, truncate, replay the suffix.
	prefix, _ := Replay(log[:3])
	resumed, err := DecodeSnapshot(prefix.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Applied() != 3 {
		t.Fatalf("snapshot applied = %d, want 3", resumed.Applied())
	}
	for _, e := range log[3:] {
		_ = resumed.Apply(e.Command)
	}
	if resumed.Hash() != full.Hash() {
		t.Errorf("snapshot+suffix hash %s != full replay hash %s", resumed.Hash(), full.Hash())
	}
	if resumed.Applied() != full.Applied() {
		t.Errorf("applied %d != %d", resumed.Applied(), full.Applied())
	}
}

func TestSnapshotTamperDetected(t *testing.T) {
	s := NewStore()
	for _, c := range []string{"SET alpha one", "SET beta two"} {
		if err := s.Apply(types.Value(c)); err != nil {
			t.Fatal(err)
		}
	}
	enc := s.EncodeSnapshot()
	// Flip one byte inside a stored value (past the 16-byte header).
	for i := 20; i < len(enc)-50; i++ {
		mutated := append([]byte(nil), enc...)
		mutated[i] ^= 0x01
		if _, err := DecodeSnapshot(mutated); err == nil {
			t.Fatalf("flipped byte at offset %d went undetected", i)
		}
	}
	if _, err := DecodeSnapshot(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated snapshot went undetected")
	}
}

// TestQuickDeterminism: any command sequence applied to two fresh stores
// yields identical hashes — the property replication correctness rests on.
func TestQuickDeterminism(t *testing.T) {
	f := func(ops []uint8, keys []uint8) bool {
		a, b := NewStore(), NewStore()
		for i, op := range ops {
			k := "k0"
			if len(keys) > 0 {
				k = fmt.Sprintf("k%d", keys[i%len(keys)]%5)
			}
			var cmd string
			switch op % 4 {
			case 0:
				cmd = fmt.Sprintf("SET %s v%d", k, op)
			case 1:
				cmd = fmt.Sprintf("DEL %s", k)
			case 2:
				cmd = fmt.Sprintf("CAS %s v%d v%d", k, op, op+1)
			case 3:
				cmd = fmt.Sprintf("junk %d", op)
			}
			_ = a.Apply(types.Value(cmd))
			_ = b.Apply(types.Value(cmd))
		}
		return a.Hash() == b.Hash() && a.Applied() == b.Applied()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// fieldsApply is Apply as it was written over strings.Fields: the
// reference the FieldsSeq split must match, state and error text alike.
func fieldsApply(data map[string]string, cmd types.Value) error {
	if cmd.IsBottom() {
		return nil
	}
	fields := strings.Fields(string(cmd))
	if len(fields) == 0 {
		return fmt.Errorf("%w: empty", ErrBadCommand)
	}
	switch fields[0] {
	case "SET":
		if len(fields) != 3 {
			return fmt.Errorf("%w: SET wants 2 args, got %d", ErrBadCommand, len(fields)-1)
		}
		data[fields[1]] = fields[2]
		return nil
	case "DEL":
		if len(fields) != 2 {
			return fmt.Errorf("%w: DEL wants 1 arg, got %d", ErrBadCommand, len(fields)-1)
		}
		delete(data, fields[1])
		return nil
	case "CAS":
		if len(fields) != 4 {
			return fmt.Errorf("%w: CAS wants 3 args, got %d", ErrBadCommand, len(fields)-1)
		}
		if data[fields[1]] == fields[2] {
			data[fields[1]] = fields[3]
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadCommand, fields[0])
	}
}

// TestApplySplitMatchesFields drives Apply and the strings.Fields
// reference with the same random commands — every separator Fields
// knows (tabs, newlines, runs of spaces, U+0085, U+00A0), empty input,
// ⊥, and up to seven fields — and requires the same store and the same
// rejected-command strings, slot for slot.
func TestApplySplitMatchesFields(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	seps := []string{" ", "  ", "\t", "\n", " \t ", "\u0085", "\u00a0", "\v\f\r"}
	words := []string{"SET", "DEL", "CAS", "set", "NOPE", "k", "k2", "v", "1", "é", "x\u200by"}
	var entries []Entry
	for slot := 0; slot < 4000; slot++ {
		var b strings.Builder
		switch rng.Intn(20) {
		case 0: // ⊥: a skipped slot
		case 1:
			b.WriteString(seps[rng.Intn(len(seps))]) // whitespace only
		case 2:
			entries = append(entries, Entry{Slot: slot, Command: types.Value{}})
			continue
		default:
			if rng.Intn(2) == 0 {
				b.WriteString(seps[rng.Intn(len(seps))])
			}
			nf := 1 + rng.Intn(7)
			for i := 0; i < nf; i++ {
				if i > 0 {
					b.WriteString(seps[rng.Intn(len(seps))])
				}
				b.WriteString(words[rng.Intn(len(words))])
			}
			if rng.Intn(3) == 0 {
				b.WriteString(seps[rng.Intn(len(seps))])
			}
		}
		var cmd types.Value
		if b.Len() > 0 {
			cmd = types.Value(b.String())
		}
		entries = append(entries, Entry{Slot: slot, Command: cmd})
	}

	got, rejected := Replay(entries)
	want := make(map[string]string)
	var wantRejected []string
	for _, e := range entries {
		if err := fieldsApply(want, e.Command); err != nil {
			wantRejected = append(wantRejected, fmt.Errorf("slot %d: %w", e.Slot, err).Error())
		}
	}
	if len(rejected) != len(wantRejected) {
		t.Fatalf("%d rejected commands, reference rejects %d", len(rejected), len(wantRejected))
	}
	for i, err := range rejected {
		if err.Error() != wantRejected[i] {
			t.Errorf("rejection %d: %q, reference %q", i, err, wantRejected[i])
		}
	}
	if len(wantRejected) == 0 || len(want) == 0 {
		t.Fatalf("degenerate input: %d rejected, %d live keys", len(wantRejected), len(want))
	}
	if snap := got.Snapshot(); fmt.Sprint(snap) != fmt.Sprint(want) {
		t.Errorf("store %v, reference %v", snap, want)
	}
	if got.Applied() != len(entries) {
		t.Errorf("applied %d of %d entries", got.Applied(), len(entries))
	}
}

// TestApplyAllocs pins Apply at one allocation per command: the string
// the stored key and value are cut from.
func TestApplyAllocs(t *testing.T) {
	s := NewStore()
	for _, cmd := range []string{"SET a2V5 i:dmFsdWU", "DEL a2V5"} {
		v := types.Value(cmd)
		if got := testing.AllocsPerRun(200, func() { _ = s.Apply(v) }); got > 1 {
			t.Errorf("Apply(%q) allocates %.1f times, want ≤ 1", cmd, got)
		}
	}
}
