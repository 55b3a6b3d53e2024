// Package kv is a deterministic replicated key-value state machine driven
// by the replicated log: replicas apply committed commands in log order and,
// because the log is totally ordered and identical everywhere, their
// stores converge byte-for-byte. It is the smallest end-to-end
// application of the paper's protocols — a BFT-replicated database whose
// replication cost is O(n) words per write in the common case.
//
// Command language (UTF-8, space-separated):
//
//	SET <key> <value>   — write
//	DEL <key>           — delete
//	CAS <key> <old> <new> — compare-and-swap (no-op if mismatch)
//
// Unknown or malformed commands are rejected deterministically: every
// replica skips them identically, so a Byzantine proposer cannot diverge
// the state by committing garbage.
package kv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// ErrBadCommand reports a command the state machine rejects; rejection is
// deterministic and identical on every replica.
var ErrBadCommand = errors.New("kv: malformed command")

// ErrSnapshotMismatch reports a snapshot whose embedded state hash does
// not match the state it decodes to — a corrupted or tampered snapshot.
var ErrSnapshotMismatch = errors.New("kv: snapshot state hash mismatch")

// Entry is one committed log position.
type Entry struct {
	Slot     int
	Proposer types.ProcessID
	// Command is the committed value; ⊥ (nil) marks a skipped slot.
	Command types.Value
}

// Store is the deterministic state machine.
type Store struct {
	data    map[string]string
	applied int // log positions consumed (including skipped/rejected)
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string]string)}
}

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.data) }

// Applied returns the number of log entries consumed.
func (s *Store) Applied() int { return s.applied }

// Get reads a key.
func (s *Store) Get(key string) (string, bool) {
	v, ok := s.data[key]
	return v, ok
}

// Apply executes one committed command. Skipped log slots (⊥) and
// malformed commands are consumed without effect; malformed ones are
// reported (so callers can log them) but never diverge state.
func (s *Store) Apply(cmd types.Value) error {
	s.applied++
	if cmd.IsBottom() {
		return nil // skipped slot
	}
	// One string for the whole command: the stored key and value are
	// substrings of it. Fields past the fourth are only counted, so the
	// split needs no slice; FieldsSeq splits exactly as strings.Fields.
	var fields [4]string
	n := 0
	for f := range strings.FieldsSeq(string(cmd)) {
		if n < len(fields) {
			fields[n] = f
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("%w: empty", ErrBadCommand)
	}
	switch fields[0] {
	case "SET":
		if n != 3 {
			return fmt.Errorf("%w: SET wants 2 args, got %d", ErrBadCommand, n-1)
		}
		s.data[fields[1]] = fields[2]
		return nil
	case "DEL":
		if n != 2 {
			return fmt.Errorf("%w: DEL wants 1 arg, got %d", ErrBadCommand, n-1)
		}
		delete(s.data, fields[1])
		return nil
	case "CAS":
		if n != 4 {
			return fmt.Errorf("%w: CAS wants 3 args, got %d", ErrBadCommand, n-1)
		}
		if s.data[fields[1]] == fields[2] {
			s.data[fields[1]] = fields[3]
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadCommand, fields[0])
	}
}

// Replay builds a store from a committed log prefix.
func Replay(entries []Entry) (*Store, []error) {
	s := NewStore()
	var rejected []error
	for _, e := range entries {
		if err := s.Apply(e.Command); err != nil {
			rejected = append(rejected, fmt.Errorf("slot %d: %w", e.Slot, err))
		}
	}
	return s, rejected
}

// Snapshot returns a copy of the live keys.
func (s *Store) Snapshot() map[string]string {
	out := make(map[string]string, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

// EncodeSnapshot serializes the store canonically (sorted keys, the
// applied-entry count, and the state hash). A snapshot plus the log
// suffix after Applied() reconstructs the exact store, which is what lets
// a long-running service truncate its committed log: replaying the
// suffix on top of the snapshot yields the same state hash as replaying
// the full log from genesis.
//
// The keys are sorted once and the encoding is written in one pass into
// an exact-size buffer: the state hash is Hash's byte stream, fed record
// by record as each key and value is written.
func (s *Store) EncodeSnapshot() []byte {
	keys := make([]string, 0, len(s.data))
	size, longest := 2*wire.SizeInt+wire.SizeBytes(hashHexLen), 0
	for k, v := range s.data {
		keys = append(keys, k)
		size += wire.SizeBytes(len(k)) + wire.SizeBytes(len(v))
		longest = max(longest, len(k)+len(v))
	}
	slices.Sort(keys)
	w := wire.NewWriterSize(size)
	w.PutInt(s.applied)
	w.PutInt(len(keys))
	h := sha256.New()
	rec := make([]byte, 0, longest+maxRecordFrame)
	for _, k := range keys {
		v := s.data[k]
		w.PutString(k)
		w.PutString(v)
		rec = appendRecord(rec[:0], k, v)
		h.Write(rec)
	}
	w.PutString(hex.EncodeToString(h.Sum(nil)[:hashLen]))
	return w.Bytes()
}

// DecodeSnapshot reconstructs a store from EncodeSnapshot output. The
// embedded state hash is re-verified against the decoded state; any
// corruption — hostile lengths, truncation, keys out of order, or a
// flipped byte that changes a value — fails with ErrSnapshotMismatch or a
// wire error, never a silently wrong store.
func DecodeSnapshot(enc []byte) (*Store, error) {
	s := &Store{}
	if err := readSnapshot(enc, s); err != nil {
		return nil, err
	}
	return s, nil
}

// CheckSnapshot reports whether DecodeSnapshot would accept enc, with the
// same parse and hash comparison but without building the store.
func CheckSnapshot(enc []byte) error { return readSnapshot(enc, nil) }

// readSnapshot parses and verifies enc in one pass, filling s unless s is
// nil. A valid snapshot lists its keys in strictly ascending order, as
// EncodeSnapshot writes them, so the records are hashed in stream order
// and nothing is sorted.
func readSnapshot(enc []byte, s *Store) error {
	r := wire.NewViewReader(enc)
	applied := r.Int()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	// A record is at least its two length prefixes, so n is also bounded
	// by the bytes left: a hostile count cannot presize a large map.
	if applied < 0 || n < 0 || n > wire.MaxChunk/8 || n > len(enc)/(2*wire.SizeInt) {
		return fmt.Errorf("%w: implausible snapshot header (applied=%d keys=%d)",
			ErrSnapshotMismatch, applied, n)
	}
	if s != nil {
		s.applied, s.data = applied, make(map[string]string, n)
	}
	h := sha256.New()
	var rec, prev []byte
	for i := 0; i < n; i++ {
		k := r.Bytes()
		v := r.Bytes()
		if r.Err() != nil {
			break
		}
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			return fmt.Errorf("%w: key %d is not above key %d", ErrSnapshotMismatch, i, i-1)
		}
		prev = k
		rec = appendRecord(rec[:0], k, v)
		h.Write(rec)
		if s != nil {
			s.data[string(k)] = string(v)
		}
	}
	want := r.Bytes()
	if err := r.Close(); err != nil {
		return err
	}
	var got [hashHexLen]byte
	hex.Encode(got[:], h.Sum(nil)[:hashLen])
	if !bytes.Equal(got[:], want) {
		return fmt.Errorf("%w: decoded %s, snapshot claims %s", ErrSnapshotMismatch, got[:], want)
	}
	return nil
}

// Hash returns a canonical digest of the state, for cheap cross-replica
// convergence checks: SHA-256 over "<len>:<key>=<len>:<value>;" for every
// key in sorted order, truncated to 16 bytes.
func (s *Store) Hash() string {
	h := sha256.New()
	var rec []byte
	for _, k := range s.sortedKeys() {
		rec = appendRecord(rec[:0], k, s.data[k])
		h.Write(rec)
	}
	return hex.EncodeToString(h.Sum(nil)[:hashLen])
}

// The state hash is the first hashLen bytes of the SHA-256, written in
// hex; a record "<len>:<key>=<len>:<value>;" adds at most maxRecordFrame
// bytes to its key and value (two decimal lengths and four separators).
const (
	hashLen        = 16
	hashHexLen     = 2 * hashLen
	maxRecordFrame = 2*20 + 4
)

// appendRecord appends the record "<len>:<key>=<len>:<value>;" that the
// state hash covers for one key, the one writer of that byte stream.
func appendRecord[T string | []byte](buf []byte, k, v T) []byte {
	buf = strconv.AppendInt(buf, int64(len(k)), 10)
	buf = append(buf, ':')
	buf = append(buf, k...)
	buf = append(buf, '=')
	buf = strconv.AppendInt(buf, int64(len(v)), 10)
	buf = append(buf, ':')
	buf = append(buf, v...)
	return append(buf, ';')
}

// sortedKeys returns the live keys in ascending order.
func (s *Store) sortedKeys() []string {
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
