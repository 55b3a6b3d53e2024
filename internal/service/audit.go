package service

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"os"

	"adaptiveba/internal/blob"
	"adaptiveba/internal/wire"
)

// The audit log is the third corner of the triangle architecture: the
// blob store holds payloads off-chain, agreement orders constant-size
// commands, and the audit log binds the two with a hash chain. Every
// committed write appends one entry whose hash covers its fields AND the
// previous entry's hash, so the log is tamper-evident end to end: a
// flipped byte in any entry breaks either its own recomputed hash or the
// next entry's Prev link, and a flipped byte in any referenced blob
// breaks the anchor check. Entries are derived purely from the committed
// log, so every replica's chain is byte-identical.

// Audit ops.
const (
	// OpPut records a committed write; Anchor is the value's content
	// address whether the value traveled inline or anchored.
	OpPut byte = 1
	// OpDel records a committed delete; Anchor is zero.
	OpDel byte = 2
)

// auditDomain separates audit-entry hashing from every other SHA-256 use
// in the repo.
const auditDomain = "adaptiveba/service/audit\x00"

// auditDomainBytes is auditDomain as hash.Hash.Write takes it, converted
// once rather than on every entry.
var auditDomainBytes = []byte(auditDomain)

// ErrAuditChain reports a broken audit chain: an entry whose recomputed
// hash or Prev link does not match what is stored.
var ErrAuditChain = errors.New("service: audit chain broken")

// AuditEntry is one link of the chain.
type AuditEntry struct {
	// Seq is the entry's position in the chain (0-based).
	Seq int
	// Slot is the committed log slot the entry records.
	Slot int
	// Op is OpPut or OpDel.
	Op byte
	// Key is the user key (raw bytes, pre-encoding).
	Key []byte
	// Anchor is the value's content address (OpPut) or zero (OpDel).
	Anchor blob.Ref
	// Anchored reports whether the value lives in the blob store (true)
	// or traveled inline through agreement (false).
	Anchored bool
	// Prev is the previous entry's Hash (zero for the genesis entry).
	Prev [32]byte
	// Hash covers every field above plus Prev.
	Hash [32]byte
}

// computeHash derives the entry hash over a domain-separated canonical
// encoding of all fields except Hash itself: auditDomain followed by the
// record's prefix (putAuditFields), so it cannot drift from Append.
func (e *AuditEntry) computeHash() [32]byte {
	w := wire.NewWriterSize(auditRecordSize(e))
	putAuditFields(w, e)
	return [32]byte(auditHash(sha256.New(), w.Bytes(), nil))
}

// auditHash appends SHA-256(auditDomain ‖ fields) to dst, reusing h.
func auditHash(h hash.Hash, fields, dst []byte) []byte {
	h.Reset()
	h.Write(auditDomainBytes)
	h.Write(fields)
	return h.Sum(dst)
}

// Audit is an append-only, fsync'd, hash-chained log file. The chain
// lives on disk; in memory the log keeps only what extending it needs —
// the next sequence number, the tip and the file's length — so a
// long-running server's footprint does not grow with its history
// (ReloadFromDisk reads it back).
type Audit struct {
	path string
	f    auditFile
	n    int      // entries chained so far
	tip  [32]byte // hash of the last entry (zero when empty)
	size int64    // bytes of the chained entries, the file's length

	// AppendBatch's reused state: the records being written, each one's
	// prefix its hash preimage, and the SHA-256 state and sum that hash
	// them. A steady-state append allocates nothing.
	rec wire.Writer
	h   hash.Hash
	sum []byte
}

// auditFile is what an Audit appends through: the log's *os.File, or in
// a test one that fails or counts on demand.
type auditFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OpenAudit opens (creating if needed) the audit log at path, loading
// and chain-verifying any existing entries. A corrupt existing file
// fails here rather than silently extending a broken chain.
func OpenAudit(path string) (*Audit, error) {
	a := &Audit{path: path, h: sha256.New()}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("service: open audit: %w", err)
	}
	if len(data) > 0 {
		entries, err := DecodeAuditLog(data)
		if err != nil {
			return nil, err
		}
		if err := VerifyChain(entries); err != nil {
			return nil, err
		}
		if a.n = len(entries); a.n > 0 {
			a.tip = entries[a.n-1].Hash
		}
		a.size = int64(len(data))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open audit: %w", err)
	}
	a.f = f
	return a, nil
}

// Close releases the underlying file.
func (a *Audit) Close() error { return a.f.Close() }

// Len returns the number of chained entries.
func (a *Audit) Len() int { return a.n }

// Append chains and durably appends one entry: AppendBatch of e alone.
// The returned entry carries the Seq, Prev and Hash assigned to it.
func (a *Audit) Append(e AuditEntry) (AuditEntry, error) {
	one := [1]AuditEntry{e}
	err := a.AppendBatch(one[:])
	return one[0], err
}

// AppendBatch chains es after the tip and appends them durably: one
// Write of every record, then one Sync. Seq, Prev and Hash are assigned
// in place; the caller fills the other fields. Each record's fields are
// encoded once: its prefix is hashed, then the hash is appended to
// complete it. The file bytes are those of one Append per entry.
//
// Nothing advances until the Sync returns: on any error the file is
// truncated back to its length before the batch, so no record of a
// failed batch stays in it, and the chain's tip is unchanged.
// AppendBatch does not retain es or the keys they hold.
func (a *Audit) AppendBatch(es []AuditEntry) error {
	if len(es) == 0 {
		return nil
	}
	a.rec.Reset()
	tip := a.tip
	for i := range es {
		e := &es[i]
		e.Seq = a.n + i
		e.Prev = tip
		start := a.rec.Len()
		putAuditFields(&a.rec, e)
		a.sum = auditHash(a.h, a.rec.Bytes()[start:], a.sum[:0])
		e.Hash = [32]byte(a.sum)
		a.rec.PutBytes(e.Hash[:])
		tip = e.Hash
	}
	if err := a.persist(a.rec.Bytes()); err != nil {
		return fmt.Errorf("service: audit append: %w", err)
	}
	a.n += len(es)
	a.tip = tip
	a.size += int64(a.rec.Len())
	return nil
}

// persist writes records and syncs them. If either step fails, the file
// is cut back to the chained entries: a record that was written but not
// synced would otherwise sit on disk as a committed one.
func (a *Audit) persist(records []byte) error {
	_, err := a.f.Write(records)
	if err == nil {
		err = a.f.Sync()
	}
	if err != nil {
		if terr := a.f.Truncate(a.size); terr != nil {
			err = errors.Join(err, terr)
		}
	}
	return err
}

// VerifyChain walks a chain end to end: every entry's hash must recompute
// and every Prev must equal the prior entry's hash (genesis Prev zero).
func VerifyChain(entries []AuditEntry) error {
	var prev [32]byte
	for i := range entries {
		e := &entries[i]
		if e.Seq != i {
			return fmt.Errorf("%w: entry %d claims seq %d", ErrAuditChain, i, e.Seq)
		}
		if e.Prev != prev {
			return fmt.Errorf("%w: entry %d prev link mismatch", ErrAuditChain, i)
		}
		if e.computeHash() != e.Hash {
			return fmt.Errorf("%w: entry %d hash mismatch", ErrAuditChain, i)
		}
		prev = e.Hash
	}
	return nil
}

// ReloadFromDisk re-reads and re-verifies the on-disk file — the
// external auditor's view, used by Verify to catch tampering that
// happened after entries were appended.
func (a *Audit) ReloadFromDisk() ([]AuditEntry, error) {
	data, err := os.ReadFile(a.path)
	if err != nil {
		return nil, fmt.Errorf("service: audit reload: %w", err)
	}
	return DecodeAuditLog(data)
}
