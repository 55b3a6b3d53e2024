package kv

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adaptiveba/internal/wire"
)

// refEncodeSnapshot is EncodeSnapshot written in two passes, a growing
// writer and a separate digest over the applied count and the fmt
// reference's records: the bytes the one-pass encoder must reproduce.
func refEncodeSnapshot(s *Store) []byte {
	w := wire.NewWriter()
	w.PutInt(s.applied)
	keys := slices.Sorted(maps.Keys(s.data))
	w.PutInt(len(keys))
	for _, k := range keys {
		w.PutString(k)
		w.PutString(s.data[k])
	}
	w.PutString(fmtDigest(s))
	return w.Bytes()
}

// fmtDigest is the snapshot digest written with fmt: SHA-256 over the
// applied count as eight big-endian bytes, then fmtHash's records, cut to
// 16 bytes in hex.
func fmtDigest(s *Store) string {
	h := sha256.New()
	h.Write(binary.BigEndian.AppendUint64(nil, uint64(s.applied)))
	for _, k := range slices.Sorted(maps.Keys(s.data)) {
		fmt.Fprintf(h, "%d:%s=%d:%s;", len(k), k, len(s.data[k]), s.data[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// refDecodeSnapshot is DecodeSnapshot as it was written over a map: it
// accepts the records in any order, duplicates included, as long as the
// count and the map they build digest to the embedded digest.
func refDecodeSnapshot(enc []byte) (*Store, error) {
	r := wire.NewReader(enc)
	applied := r.Int()
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if applied < 0 || n < 0 || n > wire.MaxChunk/8 {
		return nil, ErrSnapshotMismatch
	}
	s := NewStore()
	s.applied = applied
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.String()
		if r.Err() != nil {
			break
		}
		s.data[k] = v
	}
	want := r.String()
	if err := r.Close(); err != nil {
		return nil, err
	}
	if fmtDigest(s) != want {
		return nil, ErrSnapshotMismatch
	}
	return s, nil
}

// randomStore fills a store with up to maxKeys keys whose keys and values
// use the record separators, spaces, NUL and multi-byte runes, and may be
// empty.
func randomStore(rng *rand.Rand, maxKeys int) *Store {
	const alphabet = ":=;ab9 \x00é"
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	s := NewStore()
	s.applied = rng.Intn(5000)
	for k := rng.Intn(maxKeys + 1); k > 0; k-- {
		s.data[str()] = str()
	}
	return s
}

// snapshotRecords cuts a valid snapshot into its 16-byte header, its
// records (key and value, length prefixes included) and the hash field.
func snapshotRecords(t *testing.T, enc []byte) (head []byte, recs [][]byte, tail []byte) {
	t.Helper()
	r := wire.NewViewReader(enc)
	r.Int()
	n := r.Int()
	off := 2 * wire.SizeInt
	for i := 0; i < n; i++ {
		k, v := r.Bytes(), r.Bytes()
		end := off + wire.SizeBytes(len(k)) + wire.SizeBytes(len(v))
		recs = append(recs, enc[off:end])
		off = end
	}
	if r.Err() != nil {
		t.Fatalf("cannot cut a valid snapshot: %v", r.Err())
	}
	return enc[:2*wire.SizeInt], recs, enc[off:]
}

// withRecords reassembles a snapshot from a header whose count it
// rewrites, the given records and the hash field.
func withRecords(head []byte, recs [][]byte, tail []byte) []byte {
	w := wire.NewWriter()
	w.PutUint64(wire.NewReader(head).Uint64()) // applied
	w.PutInt(len(recs))
	b := w.Bytes()
	for _, r := range recs {
		b = append(b, r...)
	}
	return append(b, tail...)
}

// streamHash is the digest field a forger would write for head and recs:
// the digest of the count and the records in the order given, as a walk
// that did not require ascending keys would compute it.
func streamHash(head []byte, recs [][]byte) []byte {
	h := sha256.New()
	h.Write(head[:wire.SizeInt])
	for _, rec := range recs {
		r := wire.NewViewReader(rec)
		h.Write(appendRecord(nil, r.Bytes(), r.Bytes()))
	}
	w := wire.NewWriter()
	w.PutString(hex.EncodeToString(h.Sum(nil)[:hashLen]))
	return w.Bytes()
}

// decodeVerdicts decodes b three ways: CheckSnapshot, DecodeSnapshot and
// the map-building reference.
func decodeVerdicts(b []byte) (check, decode, ref error) {
	_, decode = DecodeSnapshot(b)
	_, ref = refDecodeSnapshot(b)
	return CheckSnapshot(b), decode, ref
}

// TestSnapshotMatchesReference pins the one-pass encoder to the two-pass
// reference byte for byte, and the walking decoder to the map-building
// one, over random stores whose keys and values hold the separator bytes
// and may be empty. On every truncation and every single-byte flip of
// each snapshot CheckSnapshot, DecodeSnapshot and the reference agree. A
// swapped pair of records or a duplicated record is refused by both with
// ErrSnapshotMismatch: under the original digest field, which the
// reference accepted, and under a digest field recomputed over the new
// record order, which only the ascending-key rule refuses. A flip in the
// applied count, the first eight bytes, is refused by all three.
func TestSnapshotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	agree := func(i int, what string, b []byte) {
		t.Helper()
		check, decode, ref := decodeVerdicts(b)
		if (check == nil) != (decode == nil) || (decode == nil) != (ref == nil) {
			t.Fatalf("store %d, %s: CheckSnapshot %v, DecodeSnapshot %v, reference %v", i, what, check, decode, ref)
		}
	}
	swaps, dups := 0, 0
	for i := 0; i < 200; i++ {
		s := randomStore(rng, 16)
		enc := s.EncodeSnapshot()
		if want := refEncodeSnapshot(s); !bytes.Equal(enc, want) {
			t.Fatalf("store %d (%q): EncodeSnapshot\n%q\nreference\n%q", i, s.data, enc, want)
		}
		if len(enc) != cap(enc) {
			t.Errorf("store %d: encoding is %d bytes in a %d-byte buffer", i, len(enc), cap(enc))
		}
		back, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		ref, err := refDecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("store %d: reference: %v", i, err)
		}
		if !maps.Equal(back.data, s.data) || !maps.Equal(ref.data, s.data) || back.applied != s.applied {
			t.Fatalf("store %d: decoded %q applied %d, reference %q, store %q applied %d",
				i, back.data, back.applied, ref.data, s.data, s.applied)
		}
		if err := CheckSnapshot(enc); err != nil {
			t.Fatalf("store %d: CheckSnapshot refuses a valid snapshot: %v", i, err)
		}

		for n := 0; n < len(enc); n++ {
			agree(i, fmt.Sprintf("truncated to %d bytes", n), enc[:n])
		}
		flipped := make([]byte, len(enc))
		for off := range enc {
			for _, mask := range []byte{0x01, 0xff} {
				copy(flipped, enc)
				flipped[off] ^= mask
				agree(i, fmt.Sprintf("byte %d ^ %#x", off, mask), flipped)
				if err := CheckSnapshot(flipped); off < wire.SizeInt && !errors.Is(err, ErrSnapshotMismatch) {
					t.Fatalf("store %d: applied count byte %d ^ %#x: CheckSnapshot %v, want ErrSnapshotMismatch", i, off, mask, err)
				}
			}
		}

		head, recs, tail := snapshotRecords(t, enc)
		refused := func(what string, recs [][]byte) {
			t.Helper()
			check, decode, ref := decodeVerdicts(withRecords(head, recs, tail))
			if !errors.Is(check, ErrSnapshotMismatch) || !errors.Is(decode, ErrSnapshotMismatch) || ref != nil {
				t.Fatalf("store %d, %s: CheckSnapshot %v, DecodeSnapshot %v (want ErrSnapshotMismatch), reference %v (want nil)",
					i, what, check, decode, ref)
			}
			check, decode, _ = decodeVerdicts(withRecords(head, recs, streamHash(head, recs)))
			if !errors.Is(check, ErrSnapshotMismatch) || !errors.Is(decode, ErrSnapshotMismatch) {
				t.Fatalf("store %d, %s, hash recomputed: CheckSnapshot %v, DecodeSnapshot %v (want ErrSnapshotMismatch)",
					i, what, check, decode)
			}
		}
		if len(recs) >= 2 {
			j := rng.Intn(len(recs) - 1)
			swapped := slices.Clone(recs)
			swapped[j], swapped[j+1] = swapped[j+1], swapped[j]
			refused(fmt.Sprintf("records %d and %d swapped", j, j+1), swapped)
			swaps++
		}
		if len(recs) >= 1 {
			j := rng.Intn(len(recs))
			refused(fmt.Sprintf("record %d duplicated", j), slices.Insert(slices.Clone(recs), j, recs[j]))
			dups++
		}
	}
	if swaps < 100 || dups < 100 {
		t.Fatalf("degenerate input: %d swaps, %d duplicates", swaps, dups)
	}
}

// snapshotStore is a store of keys keys of the svc-put shape: short keys,
// 100-byte inline values.
func snapshotStore(keys int) *Store {
	s := NewStore()
	s.applied = 3 * keys
	for k := 0; k < keys; k++ {
		s.data[fmt.Sprintf("key-%06d", k)] = "i:" + strings.Repeat("v", 98)
	}
	return s
}

// TestSnapshotAllocs pins EncodeSnapshot and CheckSnapshot at a constant
// number of allocations, whatever the key count: the encoder sorts one key
// slice and writes into one exact-size buffer, and the check builds
// nothing per record. At the two-pass encoder a 1 024-key snapshot made 38
// allocations (552 KB of writer regrowth for a 116 KB encoding), and the
// check was a full decode of 2 085.
func TestSnapshotAllocs(t *testing.T) {
	const encodeCeiling, checkCeiling = 8, 6
	counts := func(keys int) (encode, check float64) {
		s := snapshotStore(keys)
		enc := s.EncodeSnapshot()
		encode = testing.AllocsPerRun(20, func() { s.EncodeSnapshot() })
		check = testing.AllocsPerRun(20, func() {
			if err := CheckSnapshot(enc); err != nil {
				t.Fatal(err)
			}
		})
		return encode, check
	}
	bigEncode, bigCheck := counts(1024)
	smallEncode, smallCheck := counts(16)
	t.Logf("1 024 keys: EncodeSnapshot %.0f allocs, CheckSnapshot %.0f; 16 keys: %.0f, %.0f",
		bigEncode, bigCheck, smallEncode, smallCheck)
	if bigEncode != smallEncode || bigCheck != smallCheck {
		t.Errorf("allocations grow with the key count: EncodeSnapshot %.0f → %.0f, CheckSnapshot %.0f → %.0f (16 → 1 024 keys)",
			smallEncode, bigEncode, smallCheck, bigCheck)
	}
	if bigEncode > encodeCeiling || bigCheck > checkCeiling {
		t.Errorf("1 024 keys: EncodeSnapshot %.0f allocs (ceiling %d), CheckSnapshot %.0f (ceiling %d)",
			bigEncode, encodeCeiling, bigCheck, checkCeiling)
	}
}

// BenchmarkSnapshot times what a service snapshot costs at 1 024 keys:
// the encoding alone (the layer metric kv.snapshot_1024_us), and with the
// check SnapshotNow makes before it truncates.
func BenchmarkSnapshot(b *testing.B) {
	s := snapshotStore(1024)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			s.EncodeSnapshot()
		}
	})
	b.Run("encode+check", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := CheckSnapshot(s.EncodeSnapshot()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzDecodeSnapshot: CheckSnapshot accepts exactly what DecodeSnapshot
// accepts; an accepted snapshot re-encodes to its own bytes, and the
// map-building reference (which accepts more) decodes it to the same
// store.
func FuzzDecodeSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	f.Add(NewStore().EncodeSnapshot())
	f.Add(snapshotStore(3).EncodeSnapshot())
	for i := 0; i < 4; i++ {
		f.Add(randomStore(rng, 6).EncodeSnapshot())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSnapshot(b)
		if check := CheckSnapshot(b); (check == nil) != (err == nil) {
			t.Fatalf("CheckSnapshot %v, DecodeSnapshot %v", check, err)
		}
		if err != nil {
			return
		}
		if again := s.EncodeSnapshot(); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n%q\n%q", again, b)
		}
		ref, err := refDecodeSnapshot(b)
		if err != nil {
			t.Fatalf("the reference refuses what DecodeSnapshot accepts: %v", err)
		}
		if !maps.Equal(ref.data, s.data) || ref.applied != s.applied {
			t.Fatalf("reference %q applied %d; DecodeSnapshot %q applied %d", ref.data, ref.applied, s.data, s.applied)
		}
	})
}
