// Package service promotes the SMR/kv stack from test harness to a
// long-running replicated KV service. The Core owns the replicated
// state: client writes batch into BKR ACS rounds (engine.RunACSLog — n
// proposers, ≥ n−t committed subset per round), committed commands apply
// to the kv state machine, and reads serve from that replicated state.
//
// Large values take the triangle architecture. A value above InlineMax
// never enters agreement: it is stored in the content-addressed blob
// store and only its 32-byte anchor rides the committed command, so the
// per-request agreement cost is a constant number of digest words
// regardless of payload size — the paper's word-complexity story held
// intact under a large-payload workload. Every committed write also
// appends one record to the hash-chained audit log; Verify walks the
// chain end to end and re-hashes every anchored blob, so a single
// flipped byte anywhere in the blob store or the audit file is detected.
//
// Snapshots bound memory for unbounded uptime: every SnapshotEvery
// committed entries the Core encodes the kv state (hash-embedded,
// self-verifying) and truncates the in-memory log suffix; correctness is
// pinned by the snapshot+suffix replay tests.
package service

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/blob"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/kv"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// Typed sentinels; the public API chains these under its error tree.
var (
	// ErrTampered reports tamper evidence: a blob or audit record whose
	// bytes no longer match their digest.
	ErrTampered = errors.New("service: tamper detected")
	// ErrDuplicate reports a (client, seq) that fell behind the dedup
	// window — too old to replay, refused rather than re-executed.
	ErrDuplicate = errors.New("service: duplicate request outside dedup window")
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("service: key not found")
	// ErrNotConverged reports an agreement round that failed to commit
	// (outside the supported fault model).
	ErrNotConverged = errors.New("service: agreement round did not converge")
	// ErrConfig reports an invalid service configuration.
	ErrConfig = errors.New("service: invalid config")
)

// Config parameterizes a Core.
type Config struct {
	// N is the replica count (default 4). T and F follow the repo's
	// conventions: T defaults to floor((n-1)/2), F crash faults.
	N int
	T int
	F int
	// Batch bounds commands per proposer per ACS round (default 8).
	Batch int
	// InlineMax is the largest value committed inline through agreement
	// (default 256 bytes); anything larger is anchored through the blob
	// store.
	InlineMax int
	// SnapshotEvery triggers a snapshot + log truncation each time that
	// many entries accumulate since the last snapshot (default 1024;
	// negative disables).
	SnapshotEvery int
	// BlobDir roots the content-addressed store (required).
	BlobDir string
	// AuditPath locates the audit log file (required).
	AuditPath string
}

// Stats accumulates the service's agreement-side cost counters.
type Stats struct {
	// Rounds is the number of ACS rounds committed.
	Rounds int
	// Committed counts committed commands.
	Committed int
	// Words / Messages / Bytes are honest-send totals across all rounds;
	// words weigh every value as 1, bytes as its encoding.
	Words    int64
	Messages int64
	Bytes    int64
	// Snapshots counts snapshot+truncate events; Truncated counts log
	// entries dropped by them.
	Snapshots int
	Truncated int
}

// Core is the replicated service state. Its trusted setup is per Core:
// NewCore draws the keys (proto.Generated) and builds the suite from
// them once, and every flush runs on that suite. The signing domain is
// per flush: each signs under its own root tag, seeded by the flush's
// first slot, so no flush's signatures or certificates verify in
// another.
//
// One goroutine at a time writes:
// Commit, SnapshotNow, Verify, Restore and the other accessors below run
// only on it (in a Server, whichever connection reader holds the commit
// lock). Get and Stats may run on any number of other goroutines at the
// same time: they read under mu, which the writer holds exclusively only
// while it applies a committed flush or counts a snapshot, never while
// agreement runs, the audit log syncs or a snapshot is encoded.
type Core struct {
	cfg    Config
	crypto *proto.Crypto // built at NewCore; every flush runs on it
	store  *kv.Store
	blobs  *blob.Store
	audit  *Audit

	// mu guards store, slots and stats against Get and Stats: readers
	// hold it shared, and the writer holds it exclusively while it changes
	// them. The audit log is the writer's alone.
	mu sync.RWMutex
	// failed is the storage error that stopped the Core, set under mu.
	// Once a committed flush could not be audited, the Core fail-stops:
	// every later Commit and Get returns failed.
	failed error

	log      []kv.Entry // suffix since the last snapshot
	snapshot []byte     // last kv.EncodeSnapshot (nil before the first)
	slots    int        // global committed-entry count (log renumbering base)
	honest   []int      // proposer IDs that are not in the crash set
	stats    Stats

	// Commit's audit scratch, reused across flushes: the flush's records,
	// the decoded keys they point into, and the inline value a record
	// hashes (Audit.AppendBatch retains none of them).
	recs           []AuditEntry
	recKeys, value []byte
}

// NewCore opens the stores and builds a core.
func NewCore(cfg Config) (*Core, error) {
	if cfg.N == 0 {
		cfg.N = 4
	}
	// The engine's rule, so a configuration that passes here runs.
	params, err := types.ParamsFor(cfg.N, cfg.T)
	if err != nil {
		return nil, fmt.Errorf("%w: n=%d t=%d: %v", ErrConfig, cfg.N, cfg.T, err)
	}
	cfg.T = params.T
	if cfg.F < 0 || cfg.F > cfg.T {
		return nil, fmt.Errorf("%w: f=%d with t=%d", ErrConfig, cfg.F, cfg.T)
	}
	if cfg.Batch == 0 {
		cfg.Batch = 8
	}
	if cfg.Batch < 1 {
		return nil, fmt.Errorf("%w: batch=%d", ErrConfig, cfg.Batch)
	}
	if cfg.InlineMax == 0 {
		cfg.InlineMax = 256
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 1024
	}
	if cfg.BlobDir == "" || cfg.AuditPath == "" {
		return nil, fmt.Errorf("%w: BlobDir and AuditPath are required", ErrConfig)
	}
	crypto, err := engine.NewCrypto(cfg.N, cfg.T, proto.Generated())
	if err != nil {
		return nil, err
	}
	blobs, err := blob.Open(cfg.BlobDir)
	if err != nil {
		return nil, err
	}
	audit, err := OpenAudit(cfg.AuditPath)
	if err != nil {
		return nil, err
	}
	c := &Core{cfg: cfg, crypto: crypto, store: kv.NewStore(), blobs: blobs, audit: audit}
	// Only honest proposers carry client commands, so every accepted
	// command commits: the engine crashes exactly the crash set, and a
	// crashed proposer's batch is excluded from the round's subset.
	crashed := adversary.CrashSet(cfg.F, false)
	for id := 0; id < cfg.N; id++ {
		if !slices.Contains(crashed, types.ProcessID(id)) {
			c.honest = append(c.honest, id)
		}
	}
	return c, nil
}

// Close releases the audit file.
func (c *Core) Close() error { return c.audit.Close() }

// Stats returns the accumulated cost counters, a consistent snapshot. It
// may run concurrently with the writer.
func (c *Core) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// StateHash returns the kv state digest.
func (c *Core) StateHash() string { return c.store.Hash() }

// LogLen returns the retained (post-snapshot) log length; Slots the
// global committed-entry count.
func (c *Core) LogLen() int { return len(c.log) }
func (c *Core) Slots() int  { return c.slots }

// Snapshot returns the last snapshot encoding (nil before the first).
func (c *Core) Snapshot() []byte { return c.snapshot }

// Audit exposes the chained audit log (read-only for callers).
func (c *Core) Audit() *Audit { return c.audit }

// Command encoding: kv commands are whitespace-split, so keys and values
// travel base64url (no padding, no spaces). Values carry a one-byte
// tag — i: inline payload, a: hex anchor into the blob store.
var b64 = base64.RawURLEncoding

func encKey(key []byte) string { return b64.EncodeToString(key) }

// keyCommand starts the kv command "<verb> <key>" in a buffer with room
// for extra more bytes, so a whole command is one exact-size allocation.
func keyCommand(verb string, key []byte, extra int) []byte {
	cmd := make([]byte, 0, len(verb)+1+b64.EncodedLen(len(key))+extra)
	cmd = append(cmd, verb...)
	cmd = append(cmd, ' ')
	return b64.AppendEncode(cmd, key)
}

// appendStored appends the payload of a stored kv value to dst, fetching
// (and content-verifying) anchored values from the blob store. dst grows
// once, with room for one byte more than the payload. On error dst's
// prefix is returned intact.
func (c *Core) appendStored(dst []byte, stored string) ([]byte, error) {
	switch {
	case strings.HasPrefix(stored, "i:"):
		enc := stored[2:]
		out, err := b64.AppendDecode(slices.Grow(dst, b64.DecodedLen(len(enc))+1), []byte(enc))
		if err != nil {
			return dst, fmt.Errorf("%w: inline value corrupt: %v", ErrTampered, err)
		}
		return out, nil
	case strings.HasPrefix(stored, "a:"):
		ref, err := blob.ParseRef(stored[2:])
		if err != nil {
			return dst, fmt.Errorf("%w: bad anchor: %v", ErrTampered, err)
		}
		out, err := c.blobs.AppendGet(dst, ref)
		if errors.Is(err, blob.ErrTampered) || errors.Is(err, blob.ErrNotFound) {
			return out, fmt.Errorf("%w: %v", ErrTampered, err)
		}
		return out, err
	default:
		return dst, fmt.Errorf("%w: unrecognized stored value", ErrTampered)
	}
}

// Op is one client write to commit.
type Op struct {
	Op    byte // OpPut or OpDel
	Key   []byte
	Value []byte // OpPut only
}

// commandFor encodes one op as a kv command, anchoring large values.
// The command is built in one exact-size buffer.
func (c *Core) commandFor(op Op) (types.Value, error) {
	switch op.Op {
	case OpPut:
		if len(op.Value) > c.cfg.InlineMax {
			ref, err := c.blobs.Put(op.Value)
			if err != nil {
				return nil, err
			}
			cmd := append(keyCommand("SET", op.Key, len(" a:")+hex.EncodedLen(len(ref))), " a:"...)
			return hex.AppendEncode(cmd, ref[:]), nil
		}
		cmd := append(keyCommand("SET", op.Key, len(" i:")+b64.EncodedLen(len(op.Value))), " i:"...)
		return b64.AppendEncode(cmd, op.Value), nil
	case OpDel:
		return keyCommand("DEL", op.Key, 0), nil
	default:
		return nil, fmt.Errorf("%w: op %d", ErrConfig, op.Op)
	}
}

// Commit drives one batch of writes through agreement: the ops are dealt
// to the honest proposers' queues in chunks of Batch, as many ACS rounds
// as the batch bound requires run in one engine call, committed entries
// renumber into the global log, their audit records are appended, and
// the entries apply to the kv store. Returns the committed entry count.
//
// The log flattens a round's batches in proposer order, so chunk k goes
// to honest[k mod H] and lands in round k div H: the log holds the ops in
// arrival order, and the later of two writes to one key is the one that
// sticks.
//
// Agreement and the audit append run without mu: every committed
// entry's record is built with no I/O, and the whole flush's records go
// to the audit log in one write and one sync. Only then are the entries
// applied and counted, under mu, so a Get never waits on an fsync and a
// value the audit chain does not hold is never served. A storage error
// stops the Core for good (see failed) with none of the flush applied.
func (c *Core) Commit(ops []Op) (int, error) {
	if c.failed != nil {
		return 0, c.failed
	}
	if len(ops) == 0 {
		return 0, nil
	}
	queues := make([][]types.Value, c.cfg.N)
	for i, op := range ops {
		cmd, err := c.commandFor(op)
		if err != nil {
			return 0, err
		}
		p := c.honest[(i/c.cfg.Batch)%len(c.honest)]
		queues[p] = append(queues[p], cmd)
	}
	perRound := len(c.honest) * c.cfg.Batch
	rounds := (len(ops) + perRound - 1) / perRound

	rep, err := engine.RunACSLog(engine.Config{
		// Rounds run one at a time: a flush is already one batch.
		N: c.cfg.N, T: c.cfg.T, F: c.cfg.F,
		Inflight: 1,
		// One suite signs every flush, each in its own domain: its
		// first slot, which the audit chain holds.
		Seed:   int64(c.slots),
		Crypto: c.crypto,
	}, queues, rounds, c.cfg.Batch)
	if err != nil {
		return 0, err
	}
	if !rep.Converged {
		return 0, ErrNotConverged
	}
	if rep.Committed < len(ops) {
		return 0, fmt.Errorf("%w: %d of %d commands committed", ErrNotConverged, rep.Committed, len(ops))
	}

	c.recs, c.recKeys = c.recs[:0], c.recKeys[:0]
	for i, e := range rep.Entries {
		c.auditRecord(c.slots+i, e.Command)
	}
	if err := c.audit.AppendBatch(c.recs); err != nil {
		c.mu.Lock()
		c.failed = fmt.Errorf("service: stopped after a storage error: %w", err)
		c.mu.Unlock()
		return 0, c.failed
	}

	c.mu.Lock()
	for _, e := range rep.Entries {
		_ = c.store.Apply(e.Command) // malformed commands skip deterministically
		c.log = append(c.log, kv.Entry{Slot: c.slots, Proposer: e.Proposer, Command: e.Command})
		c.slots++
	}
	c.stats.Rounds += len(rep.Rounds)
	c.stats.Committed += rep.Committed
	c.stats.Words += rep.Engine.Metrics.Honest.Words
	c.stats.Messages += rep.Engine.Metrics.Honest.Messages
	c.stats.Bytes += rep.Engine.Metrics.Honest.Bytes
	c.mu.Unlock()
	if err := c.maybeSnapshot(); err != nil {
		return 0, err
	}
	return rep.Committed, nil
}

// auditRecord adds the audit record of the command committed at slot to
// c.recs; a command that is not a service write has none. Audit records
// derive purely from committed entries, so replicas reconstruct
// identical chains. The command is split in place, its key decodes into
// c.recKeys, which the record points into, and its inline value into
// reused scratch.
func (c *Core) auditRecord(slot int, cmd []byte) {
	var fields [3][]byte
	n := 0
	for f := range bytes.FieldsSeq(cmd) {
		if n < len(fields) {
			fields[n] = f
		}
		n++
	}
	if n < 2 {
		return
	}
	start := len(c.recKeys)
	keys, err := b64.AppendDecode(c.recKeys, fields[1])
	if err != nil {
		return // not a service-encoded command; nothing to audit
	}
	rec := AuditEntry{Slot: slot, Key: keys[start:]}
	switch string(fields[0]) {
	case "SET":
		if n != 3 {
			return
		}
		rec.Op = OpPut
		switch v := fields[2]; {
		case bytes.HasPrefix(v, []byte("i:")):
			if c.value, err = b64.AppendDecode(c.value[:0], v[2:]); err != nil {
				return
			}
			rec.Anchor = anchorOf(c.value)
		case bytes.HasPrefix(v, []byte("a:")):
			ref, err := blob.ParseRef(v[2:])
			if err != nil {
				return
			}
			rec.Anchor = ref
			rec.Anchored = true
		default:
			return
		}
	case "DEL":
		rec.Op = OpDel
	default:
		return
	}
	c.recKeys = keys
	c.recs = append(c.recs, rec)
}

// maybeSnapshot snapshots and truncates once enough entries accumulate.
func (c *Core) maybeSnapshot() error {
	if c.cfg.SnapshotEvery < 0 || len(c.log) < c.cfg.SnapshotEvery {
		return nil
	}
	return c.SnapshotNow()
}

// SnapshotNow unconditionally snapshots the kv state and truncates the
// retained log suffix. The snapshot embeds its own state hash, so a
// later restore is self-verifying (kv.ErrSnapshotMismatch).
func (c *Core) SnapshotNow() error {
	c.snapshot = c.store.EncodeSnapshot()
	if err := kv.CheckSnapshot(c.snapshot); err != nil {
		return err // never truncate on an unrestorable snapshot
	}
	c.mu.Lock()
	c.stats.Snapshots++
	c.stats.Truncated += len(c.log)
	c.mu.Unlock()
	c.log = nil
	return nil
}

// Get resolves a key from replicated state, fetching anchored values
// from the blob store with content verification. It may run concurrently
// with Commit and with other Gets.
func (c *Core) Get(key []byte) ([]byte, error) { return c.appendGet(nil, key) }

// appendGet is Get appending the value to dst; see appendStored.
func (c *Core) appendGet(dst, key []byte) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.failed != nil {
		return dst, c.failed
	}
	stored, ok := c.store.Get(encKey(key))
	if !ok {
		return dst, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return c.appendStored(dst, stored)
}

// getResponse encodes the OK response to a Get of key with the value
// copied once, from the store straight into the reply: the header, then
// the value, then the trailing no-report flag, and last the value's
// length prefix, backfilled. The bytes equal EncodeResponse of
// Response{Seq: seq, Status: StatusOK, Value: value}.
//
// The header is written into hdr, the caller's scratch (one per
// goroutine that serves Gets). Its capacity is exactly the header, so
// appending the value always moves the reply into a fresh buffer sized
// for it: hdr is never part of a reply.
func (c *Core) getResponse(hdr *[getHeaderSize]byte, seq int, key []byte) ([]byte, error) {
	// The header is PutInt(seq), PutByte twice, PutString(""), and the
	// Value's length prefix: PutInt's big-endian words, written in place.
	body := binary.BigEndian.AppendUint64(hdr[:0], uint64(seq))
	body = append(body, StatusOK, CodeNone)
	body = binary.BigEndian.AppendUint64(body, 0) // empty Detail
	body = binary.BigEndian.AppendUint64(body, 0) // Value's length, backfilled below
	body, err := c.appendGet(body, key)
	if err != nil {
		return nil, err
	}
	body = append(body, 0) // no VerifyReport
	binary.BigEndian.PutUint64(body[getHeaderSize-wire.SizeInt:], uint64(len(body)-getHeaderSize-1))
	return body, nil
}

// Verify is the end-to-end tamper-evidence walk: re-read the audit file
// from disk, recompute the whole hash chain, and re-hash every anchored
// blob. Any flipped byte in either store surfaces here.
func (c *Core) Verify() (*VerifyReport, error) {
	rep := &VerifyReport{StateHash: c.store.Hash()}
	entries, err := c.audit.ReloadFromDisk()
	if err != nil {
		return rep, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	rep.Entries = len(entries)
	refs, err := c.blobs.Refs()
	if err != nil {
		return rep, err
	}
	rep.Blobs = len(refs)
	badSeqs, err := VerifyAgainst(entries, c.blobs)
	if err != nil {
		return rep, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	rep.ChainOK = true
	rep.BadSeqs = badSeqs
	rep.BadBlobs = len(badSeqs)
	if rep.BadBlobs > 0 {
		return rep, fmt.Errorf("%w: %d anchored blobs failed verification", ErrTampered, rep.BadBlobs)
	}
	// Chain and anchors are clean; also sweep unreferenced blobs.
	if bad, err := c.blobs.VerifyAll(); err != nil {
		return rep, err
	} else if len(bad) > 0 {
		return rep, fmt.Errorf("%w: %d stored blobs failed verification", ErrTampered, len(bad))
	}
	return rep, nil
}

// Restore rebuilds a store from the snapshot plus the retained log
// suffix — the recovery path a replica would take after truncation. It
// returns the rebuilt store's hash (which must equal StateHash()).
func (c *Core) Restore() (string, error) {
	var s *kv.Store
	if c.snapshot == nil {
		s = kv.NewStore()
	} else {
		var err error
		s, err = kv.DecodeSnapshot(c.snapshot)
		if err != nil {
			return "", err
		}
	}
	for _, e := range c.log {
		_ = s.Apply(e.Command)
	}
	return s.Hash(), nil
}
