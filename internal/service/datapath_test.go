package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The data path's byte formats — audit records, committed commands, Get
// replies — are pinned here against the field-by-field encodings they
// replaced, and its allocation counts are guarded (make alloc-guard).

// threeEntryChain is a fixed chain: an inline put, an anchored put and a
// delete.
var threeEntryChain = []AuditEntry{
	{Slot: 0, Op: OpPut, Key: []byte("k1"), Anchor: anchorOf([]byte("v1"))},
	{Slot: 1, Op: OpPut, Key: []byte("k2"), Anchor: anchorOf(bytes.Repeat([]byte("z"), 64)), Anchored: true},
	{Slot: 7, Op: OpDel, Key: []byte("k1")},
}

// threeEntryChainSHA256 is the SHA-256 of the 444-byte audit file that
// threeEntryChain produces, recorded when each record was still encoded
// field by field twice (once to hash, once to write).
const threeEntryChainSHA256 = "15d2ed94c2c7d99f836a9a8458a273bce7ac6f32dacfe9fd7396959be8ad7106"

// TestAuditRecordIsItsOwnPreimage: each record Append writes is exactly
// EncodeAuditEntry of the returned entry, its hash is computeHash (what
// VerifyChain recomputes), and the whole file is byte-identical to the
// pinned chain.
func TestAuditRecordIsItsOwnPreimage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	a, err := OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var want []byte
	for i, e := range threeEntryChain {
		got, err := a.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		rec := EncodeAuditEntry(&got)
		if !bytes.Equal(a.rec.Bytes(), rec) {
			t.Fatalf("entry %d: record %x, EncodeAuditEntry %x", i, a.rec.Bytes(), rec)
		}
		if got.Hash != got.computeHash() {
			t.Fatalf("entry %d: Hash %x, computeHash %x", i, got.Hash, got.computeHash())
		}
		want = append(want, rec...)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("file holds %d bytes, the records %d", len(data), len(want))
	}
	if sum := sha256.Sum256(data); len(data) != 444 || hex.EncodeToString(sum[:]) != threeEntryChainSHA256 {
		t.Fatalf("chain file: %d bytes, SHA-256 %x; want 444 bytes, %s", len(data), sum, threeEntryChainSHA256)
	}
	entries, err := a.ReloadFromDisk()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyChain(entries); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedAuditBytesPinned: the audit file a Core writes for an
// inline put, an anchored put and a delete is byte-identical to the one
// recorded before commands were split in place.
func TestCommittedAuditBytesPinned(t *testing.T) {
	c := testCore(t, nil)
	if _, err := c.Commit([]Op{
		{Op: OpPut, Key: []byte("k1"), Value: []byte("v1")},
		{Op: OpPut, Key: []byte("k2"), Value: bytes.Repeat([]byte("z"), 64)},
		{Op: OpDel, Key: []byte("k1")},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.cfg.AuditPath)
	if err != nil {
		t.Fatal(err)
	}
	const want = "3020cde5409fb4b2b05a4f99dbbd825e976a8e9388bd73d28a05b26640b6afa2"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("core audit file: %d bytes, SHA-256 %x; want %s", len(data), sum, want)
	}
}

// concatCommand is commandFor as string concatenation, the form the
// exact-size builder replaced: committed bytes must not change.
func concatCommand(op Op, anchored bool) string {
	enc := base64.RawURLEncoding.EncodeToString
	switch {
	case op.Op == OpDel:
		return "DEL " + enc(op.Key)
	case anchored:
		ref := anchorOf(op.Value)
		return "SET " + enc(op.Key) + " a:" + hex.EncodeToString(ref[:])
	default:
		return "SET " + enc(op.Key) + " i:" + enc(op.Value)
	}
}

// TestCommandForMatchesConcatenation pins commandFor's bytes for inline,
// anchored and delete ops — empty keys and values included — and checks
// each command is built in one buffer of exactly its size.
func TestCommandForMatchesConcatenation(t *testing.T) {
	c := testCore(t, nil)
	big := bytes.Repeat([]byte("anchored "), 8)
	ops := []Op{
		{Op: OpPut, Key: []byte("k1"), Value: []byte("v1")},
		{Op: OpPut, Key: []byte("k2"), Value: bytes.Repeat([]byte("z"), 64)},
		{Op: OpDel, Key: []byte("k1")},
		{Op: OpPut, Key: nil, Value: nil},
		{Op: OpPut, Key: []byte{0xff, 0x00, ' '}, Value: []byte("\x00 \t\xfe")},
		{Op: OpPut, Key: []byte("b"), Value: big},
		{Op: OpDel, Key: nil},
	}
	for i, op := range ops {
		got, err := c.commandFor(op)
		if err != nil {
			t.Fatal(err)
		}
		want := concatCommand(op, len(op.Value) > c.cfg.InlineMax)
		if string(got) != want {
			t.Errorf("op %d: commandFor %q, concatenation %q", i, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("op %d: command len %d cap %d", i, len(got), cap(got))
		}
	}
	// The three commands recorded before the change.
	for i, want := range []string{"SET azE i:djE", "SET azI a:72996563049cc84daa2c3f31fd5c3d10770e69d6ebbb8da5b6d76db303dbae43", "DEL azE"} {
		if got, _ := c.commandFor(ops[i]); string(got) != want {
			t.Errorf("op %d: %q, recorded %q", i, got, want)
		}
	}
}

// TestGetResponseMatchesEncodeResponse: the Get reply built in place is
// the frame EncodeResponse gives for the same value — inline, anchored,
// empty — and a Get of a missing key fails.
func TestGetResponseMatchesEncodeResponse(t *testing.T) {
	c := testCore(t, nil)
	values := map[string][]byte{
		"inline":   []byte("tiny value"),
		"empty":    {},
		"anchored": bytes.Repeat([]byte("q"), 8<<10),
		"boundary": bytes.Repeat([]byte("b"), c.cfg.InlineMax+1),
	}
	var ops []Op
	for k, v := range values {
		ops = append(ops, Op{Op: OpPut, Key: []byte(k), Value: v})
	}
	if _, err := c.Commit(ops); err != nil {
		t.Fatal(err)
	}
	var hdr [getHeaderSize]byte
	for k, v := range values {
		got, err := c.getResponse(&hdr, 1<<40+3, []byte(k))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		want := EncodeResponse(&Response{Seq: 1<<40 + 3, Status: StatusOK, Value: v})
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reply %x, EncodeResponse %x", k, got, want)
		}
		if v2, err := c.Get([]byte(k)); err != nil || !bytes.Equal(v2, v) {
			t.Fatalf("%s: Get %q, %v", k, v2, err)
		}
	}
	if _, err := c.getResponse(&hdr, 1, []byte("absent")); err == nil {
		t.Fatal("Get of an absent key succeeded")
	}
}

// TestAuditAppendZeroAllocs guards the append's steady state: the record
// writer, SHA-256 state and sum are the Audit's own, so a warmed-up
// Append, and a warmed-up AppendBatch of a 32-write flush's records,
// allocate nothing.
func TestAuditAppendZeroAllocs(t *testing.T) {
	a, err := OpenAudit(filepath.Join(t.TempDir(), "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	e := threeEntryChain[1]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := a.Append(e); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Audit.Append: %.1f allocs/op (ceiling 0)", allocs)
	if allocs != 0 {
		t.Errorf("Audit.Append allocates %.1f times per entry, want 0", allocs)
	}

	batch := make([]AuditEntry, 32)
	for i := range batch {
		batch[i] = threeEntryChain[i%len(threeEntryChain)]
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := a.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Audit.AppendBatch of %d records: %.1f allocs/op (ceiling 0)", len(batch), allocs)
	if allocs != 0 {
		t.Errorf("Audit.AppendBatch allocates %.1f times per %d records, want 0", allocs, len(batch))
	}
}

// BenchmarkAuditFlush persists one 32-write flush's audit records in a
// file under the temp directory: as 32 single Appends, one Write and
// one Sync each, and as one AppendBatch. tmpfs makes a Sync nearly free;
// with TMPDIR on a disk the gap is what the group commit saves.
func BenchmarkAuditFlush(b *testing.B) {
	batch := make([]AuditEntry, 32)
	for i := range batch {
		batch[i] = threeEntryChain[i%len(threeEntryChain)]
	}
	open := func(b *testing.B) *Audit {
		a, err := OpenAudit(filepath.Join(b.TempDir(), "audit.log"))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { a.Close() })
		return a
	}
	b.Run("append32", func(b *testing.B) {
		a := open(b)
		for b.Loop() {
			for _, e := range batch {
				if _, err := a.Append(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch32", func(b *testing.B) {
		a := open(b)
		for b.Loop() {
			if err := a.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// countingAudit is an audit file that records how many audit records each
// Write carries, and counts its Syncs.
type countingAudit struct {
	auditFile
	records []int
	syncs   int
}

func (f *countingAudit) Write(p []byte) (int, error) {
	entries, err := DecodeAuditLog(p)
	if err != nil {
		return 0, err
	}
	f.records = append(f.records, len(entries))
	return f.auditFile.Write(p)
}

func (f *countingAudit) Sync() error {
	f.syncs++
	return f.auditFile.Sync()
}

// TestFlushIsOneAuditWrite: a 32-write flush reaches the audit file as
// one Write of its 32 records and one Sync, and the file holds the bytes
// that 32 single Appends of the same records write.
func TestFlushIsOneAuditWrite(t *testing.T) {
	const writes = 32
	c := testCore(t, nil)
	count := &countingAudit{auditFile: c.audit.f}
	c.audit.f = count
	var ops []Op
	for i := range writes {
		// Values past testCore's InlineMax of 32 are anchored.
		ops = append(ops, Op{Op: OpPut, Key: []byte{byte(i)}, Value: bytes.Repeat([]byte{byte(i)}, 1+2*i)})
	}
	ops[writes-1] = Op{Op: OpDel, Key: []byte{0}}
	if _, err := c.Commit(ops); err != nil {
		t.Fatal(err)
	}
	if len(count.records) != 1 || count.records[0] != writes || count.syncs != 1 {
		t.Fatalf("a %d-write flush: Writes of %v records and %d Syncs; want one Write of %d and one Sync",
			writes, count.records, count.syncs, writes)
	}

	got, err := os.ReadFile(c.cfg.AuditPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := DecodeAuditLog(got)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "single.log")
	single, err := OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, e := range entries {
		if _, err := single.Append(AuditEntry{Slot: e.Slot, Op: e.Op, Key: e.Key, Anchor: e.Anchor, Anchored: e.Anchored}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != writes || !bytes.Equal(got, want) {
		t.Fatalf("flush wrote %d records in %d bytes; %d single Appends write %d bytes, equal %t",
			len(entries), len(got), len(entries), len(want), bytes.Equal(got, want))
	}
}

// TestFrameEncodeOneExactAlloc guards the client frames: EncodeRequest
// and EncodeResponse size their buffer up front, so each makes one
// allocation whose capacity is the frame's length.
func TestFrameEncodeOneExactAlloc(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 4<<10)
	reqs := []*Request{
		{Client: 1, Seq: 2, Op: ReqPut, Key: []byte("key"), Value: val},
		{Client: 1, Seq: 3, Op: ReqGet, Key: []byte("key")},
	}
	resps := []*Response{
		{Seq: 2, Status: StatusOK, Value: val},
		{Seq: 3, Status: StatusError, Code: CodeNotFound, Detail: "service: key not found"},
		{Seq: 4, Status: StatusOK, Report: &VerifyReport{Entries: 9, Blobs: 2, ChainOK: true, BadBlobs: 2, BadSeqs: []int{1, 5}, StateHash: "abc"}},
	}
	check := func(name string, encode func() []byte) {
		t.Helper()
		if b := encode(); cap(b) != len(b) {
			t.Errorf("%s: frame len %d cap %d", name, len(b), cap(b))
		}
		allocs := testing.AllocsPerRun(100, func() { encode() })
		t.Logf("%s: %.1f allocs/op (ceiling 1)", name, allocs)
		if allocs > 1 {
			t.Errorf("%s allocates %.1f times, want 1", name, allocs)
		}
	}
	for _, q := range reqs {
		check("EncodeRequest", func() []byte { return EncodeRequest(q) })
	}
	for _, p := range resps {
		check("EncodeResponse", func() []byte { return EncodeResponse(p) })
	}
}

// TestAnchoredGetReplyOneCopy guards the server's anchored Get: the 8 KiB
// value is read from its blob straight into the reply, whose capacity is
// at most the value plus 64 bytes, and no second value-sized buffer is
// made. The rest — opening, stat'ing and naming the file, encoding the
// key — is a fixed overhead of about 0.7 KiB.
func TestAnchoredGetReplyOneCopy(t *testing.T) {
	c := testCore(t, nil)
	val := bytes.Repeat([]byte("q"), 8<<10)
	key := []byte("big")
	if _, err := c.Commit([]Op{{Op: OpPut, Key: key, Value: val}}); err != nil {
		t.Fatal(err)
	}
	var hdr [getHeaderSize]byte
	reply, err := c.getResponse(&hdr, 1, key)
	if err != nil {
		t.Fatal(err)
	}
	if extra := cap(reply) - len(val); extra > 64 {
		t.Errorf("reply capacity %d is %d bytes over the value", cap(reply), extra)
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() { c.getResponse(&hdr, 1, key) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c.getResponse(&hdr, 1, key)
	}
	runtime.ReadMemStats(&after)
	perGet := int(after.TotalAlloc-before.TotalAlloc) / runs
	// The reply's size class rounds 8 KiB + 36 B up to 9 472 B.
	const allocCeiling, byteCeiling = 11, 9472 + 2048
	t.Logf("anchored 8 KiB Get reply: %.1f allocs, %d B per Get (ceilings %d, %d)", allocs, perGet, allocCeiling, byteCeiling)
	if allocs > allocCeiling || perGet > byteCeiling {
		t.Errorf("anchored Get: %.1f allocs, %d B; want ≤ %d, ≤ %d B (one copy of the value)", allocs, perGet, allocCeiling, byteCeiling)
	}
}
