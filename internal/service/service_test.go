package service

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptiveba/internal/blob"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/transport"
)

func testCore(t *testing.T, mut func(*Config)) *Core {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		N:         4,
		BlobDir:   filepath.Join(dir, "blobs"),
		AuditPath: filepath.Join(dir, "audit.log"),
		InlineMax: 32,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// coreSlots reads a live server's committed slots under Core.mu, which
// the committer holds while it applies a flush.
func coreSlots(s *Server) int {
	s.core.mu.RLock()
	defer s.core.mu.RUnlock()
	return s.core.Slots()
}

// coreAuditLen counts the records in a live server's audit file. The run
// loop appends them without Core.mu, so this reads them back from disk,
// as an auditor would; call it once the flushes in question are answered.
func coreAuditLen(t *testing.T, s *Server) int {
	t.Helper()
	entries, err := s.core.Audit().ReloadFromDisk()
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestNewCoreRejectsUnrunnableParams: NewCore validates n and t by the
// engine's rule, so a core that opens can commit.
func TestNewCoreRejectsUnrunnableParams(t *testing.T) {
	for _, c := range []struct{ n, t int }{{1, 0}, {2, 0}, {-1, 0}, {5, 3}, {5, -1}} {
		dir := t.TempDir()
		core, err := NewCore(Config{
			N: c.n, T: c.t,
			BlobDir: filepath.Join(dir, "blobs"), AuditPath: filepath.Join(dir, "audit.log"),
		})
		if err == nil {
			core.Close()
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("n=%d t=%d: want ErrConfig, got %v", c.n, c.t, err)
		}
	}
}

func TestCoreCommitGet(t *testing.T) {
	c := testCore(t, nil)
	small := []byte("small")
	large := bytes.Repeat([]byte("x"), 500) // > InlineMax: anchored
	n, err := c.Commit([]Op{
		{Op: OpPut, Key: []byte("a"), Value: small},
		{Op: OpPut, Key: []byte("b"), Value: large},
		{Op: OpDel, Key: []byte("missing")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("committed %d, want 3", n)
	}
	if v, err := c.Get([]byte("a")); err != nil || !bytes.Equal(v, small) {
		t.Fatalf("get a: %q %v", v, err)
	}
	if v, err := c.Get([]byte("b")); err != nil || !bytes.Equal(v, large) {
		t.Fatalf("get b (anchored): %v", err)
	}
	if _, err := c.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if c.audit.Len() != 3 {
		t.Fatalf("audit chain %d entries, want 3", c.audit.Len())
	}
	if rep, err := c.Verify(); err != nil || !rep.OK() {
		t.Fatalf("verify: %v (%+v)", err, rep)
	}
}

// TestCommitKeepsArrivalOrder: a flush commits its ops in the order they
// arrived, so of two pipelined writes to one key the later one sticks.
// Ops 1 and 4 write key "k"; the shapes put the flush in one round, in
// several rounds, and across a crashed proposer.
func TestCommitKeepsArrivalOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		ops  int
	}{
		{"one round", nil, 5},
		{"two rounds of batch 2", func(cfg *Config) { cfg.Batch = 2 }, 10},
		{"crashed proposers", func(cfg *Config) { cfg.N, cfg.F, cfg.Batch = 5, 2, 2 }, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCore(t, tc.mut)
			var ops []Op
			for i := 0; i < tc.ops; i++ {
				ops = append(ops, Op{Op: OpPut, Key: []byte(fmt.Sprintf("key-%d", i)), Value: []byte(fmt.Sprintf("value-%d", i))})
			}
			ops[1].Key, ops[4].Key = []byte("k"), []byte("k")
			if n, err := c.Commit(ops); err != nil || n != len(ops) {
				t.Fatalf("committed %d of %d: %v", n, len(ops), err)
			}
			if v, err := c.Get([]byte("k")); err != nil || string(v) != "value-4" {
				t.Fatalf("get k = %q (%v), want op 4's value-4", v, err)
			}
			for i, e := range c.log {
				want, err := c.commandFor(ops[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(e.Command, want) {
					t.Fatalf("log slot %d holds %q, want op %d's %q", i, e.Command, i, want)
				}
			}
		})
	}
}

func TestCoreCommitWithCrashFaults(t *testing.T) {
	c := testCore(t, func(cfg *Config) { cfg.N = 5; cfg.F = 2 })
	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Op: OpPut, Key: []byte{byte(i)}, Value: []byte{byte(i), byte(i)}})
	}
	n, err := c.Commit(ops)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("only %d of 10 committed under crash faults", n)
	}
	for i := 0; i < 10; i++ {
		if v, err := c.Get([]byte{byte(i)}); err != nil || !bytes.Equal(v, []byte{byte(i), byte(i)}) {
			t.Fatalf("key %d lost: %v", i, err)
		}
	}
}

func TestCoreSnapshotTruncateRestore(t *testing.T) {
	c := testCore(t, func(cfg *Config) { cfg.SnapshotEvery = 4 })
	for i := 0; i < 3; i++ {
		ops := []Op{
			{Op: OpPut, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte(fmt.Sprintf("v%d", i))},
			{Op: OpPut, Key: []byte(fmt.Sprintf("j%d", i)), Value: bytes.Repeat([]byte("y"), 100)},
		}
		if _, err := c.Commit(ops); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Snapshots == 0 {
		t.Fatal("no snapshot was taken")
	}
	if c.Slots() != 6 {
		t.Fatalf("slots = %d, want 6", c.Slots())
	}
	// Replay from snapshot + retained suffix must reproduce the state.
	got, err := c.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got != c.StateHash() {
		t.Fatalf("restore hash %s != live hash %s", got, c.StateHash())
	}
	if c.LogLen() >= 6 {
		t.Fatalf("log was never truncated: %d entries retained", c.LogLen())
	}
}

// TestEndToEndTamperEvidence is the acceptance test: a single flipped
// byte in a stored blob AND (separately) in one audit-log record must
// both fail Verify.
func TestEndToEndTamperEvidence(t *testing.T) {
	dir := t.TempDir()
	blobDir := filepath.Join(dir, "blobs")
	auditPath := filepath.Join(dir, "audit.log")
	c, err := NewCore(Config{N: 4, BlobDir: blobDir, AuditPath: auditPath, InlineMax: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	large := bytes.Repeat([]byte("payload"), 64)
	if _, err := c.Commit([]Op{
		{Op: OpPut, Key: []byte("small"), Value: []byte("tiny")},
		{Op: OpPut, Key: []byte("big"), Value: large},
	}); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Verify(); err != nil || !rep.OK() {
		t.Fatalf("clean state failed verify: %v", err)
	}

	// 1. Flip one byte in the stored blob.
	ref := blob.Sum(large)
	blobPath := filepath.Join(blobDir, ref.String())
	data, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	orig := data[10]
	data[10] ^= 0x01
	if err := os.WriteFile(blobPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Verify()
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("flipped blob byte: want ErrTampered, got %v", err)
	}
	if rep.BadBlobs != 1 {
		t.Fatalf("report blames %d blobs, want 1", rep.BadBlobs)
	}
	// Also via the read path.
	if _, err := c.Get([]byte("big")); !errors.Is(err, ErrTampered) {
		t.Fatalf("get of tampered blob: want ErrTampered, got %v", err)
	}
	data[10] = orig
	if err := os.WriteFile(blobPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(); err != nil {
		t.Fatalf("restored blob still failing: %v", err)
	}

	// 2. Flip one byte in an audit-log record.
	audit, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	mutated := append([]byte(nil), audit...)
	mutated[len(mutated)/2] ^= 0x01
	if err := os.WriteFile(auditPath, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(); !errors.Is(err, ErrTampered) {
		t.Fatalf("flipped audit byte: want ErrTampered, got %v", err)
	}
	if err := os.WriteFile(auditPath, audit, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Verify(); err != nil || !rep.OK() {
		t.Fatalf("restored audit still failing: %v", err)
	}
}

// TestVerifyReportCases pins Verify's report and error for the blob
// cases its walk tells apart: a ref anchored by two entries whose blob
// is flipped (both entries blamed), a deleted anchored blob (its entry
// blamed, one blob fewer), and a tampered blob that no entry anchors
// (the chain and anchors clean, the walk still failing).
func TestVerifyReportCases(t *testing.T) {
	dir := t.TempDir()
	blobDir := filepath.Join(dir, "blobs")
	c, err := NewCore(Config{N: 4, BlobDir: blobDir, AuditPath: filepath.Join(dir, "audit.log"), InlineMax: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shared, own := bytes.Repeat([]byte("shared "), 64), bytes.Repeat([]byte("own "), 64)
	if _, err := c.Commit([]Op{
		{Op: OpPut, Key: []byte("a"), Value: shared},
		{Op: OpPut, Key: []byte("b"), Value: shared},
		{Op: OpPut, Key: []byte("c"), Value: own},
		{Op: OpPut, Key: []byte("d"), Value: []byte("inline")},
	}); err != nil {
		t.Fatal(err)
	}
	path := func(v []byte) string { return filepath.Join(blobDir, blob.Sum(v).String()) }
	write := func(p string, data []byte) {
		t.Helper()
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(v []byte) []byte { f := bytes.Clone(v); f[3] ^= 1; return f }
	check := func(name string, blobs int, badSeqs []int, wantErr string) {
		t.Helper()
		rep, err := c.Verify()
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != wantErr {
			t.Errorf("%s: error %q, want %q", name, got, wantErr)
		}
		if wantErr != "" && !errors.Is(err, ErrTampered) {
			t.Errorf("%s: %v is not ErrTampered", name, err)
		}
		want := VerifyReport{Entries: 4, Blobs: blobs, ChainOK: true, BadBlobs: len(badSeqs), BadSeqs: badSeqs, StateHash: c.StateHash()}
		if rep.Entries != want.Entries || rep.Blobs != want.Blobs || rep.ChainOK != want.ChainOK ||
			rep.BadBlobs != want.BadBlobs || !slices.Equal(rep.BadSeqs, want.BadSeqs) || rep.StateHash != want.StateHash {
			t.Errorf("%s: report %+v, want %+v", name, *rep, want)
		}
	}
	check("clean", 2, nil, "")

	write(path(shared), flip(shared))
	check("shared ref flipped", 2, []int{0, 1}, "service: tamper detected: 2 anchored blobs failed verification")
	write(path(shared), shared)

	if err := os.Remove(path(own)); err != nil {
		t.Fatal(err)
	}
	check("anchored blob deleted", 1, []int{2}, "service: tamper detected: 1 anchored blobs failed verification")
	write(path(own), own)

	loose := bytes.Repeat([]byte("loose "), 64)
	write(path(loose), flip(loose))
	check("unreferenced blob tampered", 3, nil, "service: tamper detected: 1 stored blobs failed verification")
}

// TestAuditEveryByteTamperEvident flips EVERY byte of the audit file in
// turn; each flip must be detected (by chain walk or record parse).
func TestAuditEveryByteTamperEvident(t *testing.T) {
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
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x01
		entries, err := DecodeAuditLog(mutated)
		if err != nil {
			continue // detected at parse
		}
		if err := VerifyChain(entries); err == nil {
			t.Fatalf("flipped byte %d of audit log went undetected", i)
		}
	}
}

func TestOpenAuditRejectsBrokenChain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.log")
	a, err := OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Append(AuditEntry{Slot: i, Op: OpPut, Key: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	// Reopen clean.
	a2, err := OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Len() != 3 {
		t.Fatalf("reloaded %d entries, want 3", a2.Len())
	}
	a2.Close()
	// Corrupt and reopen: must refuse.
	data, _ := os.ReadFile(path)
	data[len(data)/3] ^= 0x01
	os.WriteFile(path, data, 0o644)
	if _, err := OpenAudit(path); err == nil {
		t.Fatal("OpenAudit accepted a broken chain")
	}
}

// startServer serves a test server, closed when the test ends, and
// checks that closing it leaves no goroutine or descriptor behind.
func startServer(t *testing.T, mut func(*ServerConfig)) *Server {
	t.Helper()
	testenv.NoLeaks(t)
	dir := t.TempDir()
	cfg := ServerConfig{
		Core: Config{
			N:         4,
			BlobDir:   filepath.Join(dir, "blobs"),
			AuditPath: filepath.Join(dir, "audit.log"),
			InlineMax: 64,
		},
		Addr: "127.0.0.1:0",
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerClientRoundTrip(t *testing.T) {
	s := startServer(t, nil)
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	large := bytes.Repeat([]byte("L"), 4096)
	if err := c.Put([]byte("small"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put([]byte("large"), large); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get([]byte("small")); err != nil || string(v) != "v" {
		t.Fatalf("get small: %q %v", v, err)
	}
	if v, err := c.Get([]byte("large")); err != nil || !bytes.Equal(v, large) {
		t.Fatalf("get large: %v", err)
	}
	if err := c.Del([]byte("small")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("small")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: want ErrNotFound, got %v", err)
	}
	rep, err := c.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("verify: %v (%+v)", err, rep)
	}
	if rep.Entries != 3 {
		t.Fatalf("audit entries = %d, want 3", rep.Entries)
	}
}

func TestServerTwoClients(t *testing.T) {
	s := startServer(t, nil)
	c1, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c1.ID() == c2.ID() {
		t.Fatalf("both clients got ID %d", c1.ID())
	}
	done := make(chan error, 2)
	for i, c := range []*Client{c1, c2} {
		go func(i int, c *Client) {
			for j := 0; j < 5; j++ {
				key := []byte(fmt.Sprintf("c%d-k%d", i, j))
				if err := c.Put(key, bytes.Repeat([]byte{byte(i + 1)}, 128)); err != nil {
					done <- err
					return
				}
				if _, err := c.Get(key); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i, c)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := c1.Verify(); err != nil || !rep.OK() {
		t.Fatalf("verify after concurrent clients: %v", err)
	}
	if n := coreSlots(s); n != 10 {
		t.Fatalf("slots = %d, want 10", n)
	}
}

// TestDedupReplay re-sends an executed request verbatim: the response
// must replay from the dedup window and the op must not re-execute.
func TestDedupReplay(t *testing.T) {
	s := startServer(t, nil)
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	slotsAfter := coreSlots(s)
	auditAfter := coreAuditLen(t, s)

	// Re-send the exact same (client, seq) request over the raw frame
	// path — what a retrying client does after a lost response.
	req := EncodeRequest(&Request{Client: c.ID(), Seq: 1, Op: ReqPut, Key: []byte("k"), Value: []byte("v")})
	if err := transport.WriteFrame(c.conn, FrameRequest, req); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	kind, body, err := c.fr.Read(c.br)
	if err != nil || kind != FrameResponse {
		t.Fatalf("replay read: kind=%d err=%v", kind, err)
	}
	resp, err := DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || resp.Status != StatusOK {
		t.Fatalf("replayed response: %+v", resp)
	}
	if n := coreSlots(s); n != slotsAfter {
		t.Fatalf("duplicate re-executed: slots %d → %d", slotsAfter, n)
	}
	if n := coreAuditLen(t, s); n != auditAfter {
		t.Fatalf("duplicate re-appended audit: %d → %d", auditAfter, n)
	}
}

// TestDedupWindowEviction: a seq older than the window is refused with
// ErrDuplicate rather than re-executed.
func TestDedupWindowEviction(t *testing.T) {
	s := startServer(t, func(cfg *ServerConfig) { cfg.DedupWindow = 2 })
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Put([]byte{byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Seq 1 is far behind the 2-deep window now.
	req := EncodeRequest(&Request{Client: c.ID(), Seq: 1, Op: ReqPut, Key: []byte{0}, Value: []byte{0}})
	if err := transport.WriteFrame(c.conn, FrameRequest, req); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	kind, body, err := c.fr.Read(c.br)
	if err != nil || kind != FrameResponse {
		t.Fatalf("read: %v", err)
	}
	resp, err := DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ResponseErr(resp), ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %+v", resp)
	}
}

// dataFrames are the frames a lossy link between clients and a server
// drops and delays: requests and replies. The hello and the welcome pass
// untouched.
var dataFrames = []byte{FrameRequest, FrameResponse}

// TestServerUnderLoss: over a link that drops and delays requests and
// replies, client retries and the dedup window commit every Put exactly
// once, and the final state still verifies.
func TestServerUnderLoss(t *testing.T) {
	s := startServer(t, nil)
	addr := (&testenv.Faults{Seed: 42, Kinds: dataFrames, Drop: 0.3, Delay: 0.2, MaxDelay: 5 * time.Millisecond}).Proxy(t, s.Addr())
	c, err := Dial(addr, ClientConfig{Timeout: 100 * time.Millisecond, Retries: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("lossy-%d", i))
		if err := c.Put(key, bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatalf("put %d over a lossy link: %v", i, err)
		}
		v, err := c.Get(key)
		if err != nil {
			t.Fatalf("get %d over a lossy link: %v", i, err)
		}
		if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 200)) {
			t.Fatalf("value %d corrupted over a lossy link", i)
		}
	}
	// Every put must have committed exactly once despite retries.
	if n := coreSlots(s); n != 8 {
		t.Fatalf("slots = %d, want 8 (dedup failed over a lossy link)", n)
	}
	if rep, err := c.Verify(); err != nil || !rep.OK() {
		t.Fatalf("verify over a lossy link: %v", err)
	}
}

// TestDedupWindowRejectsAncientSeq: recording a response for a seq
// already behind the window must not re-enter it and evict a fresher
// response a pending retry may still need.
func TestDedupWindowRejectsAncientSeq(t *testing.T) {
	c := &serverConn{resp: make(map[int][]byte), evicted: -1}
	c.keep(1, []byte("r1"), 2)
	c.keep(2, []byte("r2"), 2)
	c.keep(3, []byte("r3"), 2) // evicts seq 1
	c.keep(1, []byte("stale"), 2)
	if _, ok := c.resp[1]; ok {
		t.Fatal("ancient seq re-entered the window")
	}
	for seq := 2; seq <= 3; seq++ {
		if c.resp[seq] == nil {
			t.Fatalf("fresh seq %d evicted by an ancient retransmit", seq)
		}
	}
}

// TestDedupWindowPassesQueuedWrite: a write still buffered when the
// replies flushed ahead of it push the window past its seq is answered,
// and a retry of it is then refused as a duplicate — not ignored as a
// retransmit of a write still queued, which would leave the client
// without a reply. Seqs 2..5 and then 1 are buffered for one flush,
// behind the Put that holds the committer.
func TestDedupWindowPassesQueuedWrite(t *testing.T) {
	s := startServer(t, func(cfg *ServerConfig) { cfg.DedupWindow = 2 })
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	put := func(seq int) *Request {
		return &Request{Client: c.ID(), Seq: seq, Op: ReqPut, Key: []byte{byte(seq)}, Value: []byte("v")}
	}
	release := holdCommitter(t, s)
	sendFrames(t, c, put(2), put(3), put(4), put(5), put(1))
	release(5)
	if resp := awaitReply(t, c, 1); resp.Status != StatusOK {
		t.Fatalf("put 1: %+v", resp)
	}
	if n := coreAuditLen(t, s); n != 6 {
		t.Fatalf("%d puts committed, want 6", n)
	}
	sendFrames(t, c, put(1))
	if resp := awaitReply(t, c, 1); resp.Code != CodeDuplicate {
		t.Fatalf("retry of seq 1 behind the window: %+v, want CodeDuplicate", resp)
	}
	if n := coreAuditLen(t, s); n != 6 {
		t.Fatalf("the retry re-executed: %d puts committed, want 6", n)
	}
}

// TestCloseWithIdleClient: Close must close live client connections so
// reader goroutines parked in fr.Read return, instead of deadlocking in
// wg.Wait while a client sits idle.
func TestCloseWithIdleClient(t *testing.T) {
	s := startServer(t, nil)
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close deadlocked with an idle client connected")
	}
}

// TestServerStatsAccumulate reads Stats while Puts commit: no read sees
// fewer commands, rounds or words than the one before it, and the last
// counts every Put and, on a default config, their bytes.
func TestServerStatsAccumulate(t *testing.T) {
	const puts = 8
	s := startServer(t, nil)
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		for i := range puts {
			if err := c.Put([]byte{byte(i)}, []byte("v")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var st Stats
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		prev := st
		if st = s.Stats(); st.Committed < prev.Committed || st.Rounds < prev.Rounds || st.Words < prev.Words {
			t.Fatalf("stats went back from %+v to %+v", prev, st)
		}
	}
	if st.Committed != puts || st.Rounds == 0 || st.Words == 0 || st.Bytes == 0 {
		t.Fatalf("stats not accumulating: %+v", st)
	}
}

// TestPipelinedRepliesNeverGap pipelines far more writes than the
// 64-frame per-connection outbox holds before reading a single reply.
// The client must then see either every reply in seq order or a clean
// prefix followed by a closed connection — never a reply lost out of
// the stream while the connection stays open, which would leave a
// pipelining client stalled on a reply that is never coming. Either
// way the committer must not have blocked on the slow client: a second
// client is served afterwards.
func TestPipelinedRepliesNeverGap(t *testing.T) {
	const depth = 200
	// One flush holds the whole pipeline, so its replies are produced
	// back to back — faster than the connection's writer drains them.
	s := startServer(t, func(cfg *ServerConfig) {
		cfg.Core.Batch = 64
	})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var pipeline bytes.Buffer
	for seq := 1; seq <= depth; seq++ {
		req := EncodeRequest(&Request{
			Client: c.ID(), Seq: seq, Op: ReqPut,
			Key: []byte(fmt.Sprintf("k%03d", seq)), Value: []byte("v"),
		})
		if err := transport.WriteFrame(&pipeline, FrameRequest, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.conn.Write(pipeline.Bytes()); err != nil {
		t.Fatal(err)
	}

	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := 0
	for got < depth {
		kind, body, err := c.fr.Read(c.br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("connection open but stalled after %d of %d replies: the rest were dropped", got, depth)
			}
			break // disconnected after a clean prefix
		}
		if kind != FrameResponse {
			t.Fatalf("unexpected frame kind %d", kind)
		}
		resp, err := DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != got+1 {
			t.Fatalf("reply %d carries seq %d: replies %d..%d were dropped", got+1, resp.Seq, got+1, resp.Seq-1)
		}
		if resp.Status != StatusOK {
			t.Fatalf("seq %d: %+v", resp.Seq, resp)
		}
		got++
	}
	t.Logf("%d of %d replies before the stream ended", got, depth)

	c2, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatalf("server unusable after the overflowing client: %v", err)
	}
}

// TestAuditMemoryBounded: the live audit log keeps a counter and the chain
// tip, not the chain (ROADMAP 4(iii): every AuditEntry used to stay in
// memory for good, ~170 B and a key per committed write). 10 000 appends
// may grow the heap by a fixed amount only, across a Close/OpenAudit in
// the middle, and the chain an auditor reads back is whole.
func TestAuditMemoryBounded(t *testing.T) {
	const total, heapBound = 10000, 256 << 10
	dir := t.TempDir()
	if shm, err := os.MkdirTemp("/dev/shm", "audit-test"); err == nil {
		// 10 000 fsyncs: free on tmpfs, seconds on a disk.
		t.Cleanup(func() { os.RemoveAll(shm) })
		dir = shm
	}
	path := filepath.Join(dir, "audit.log")
	a, err := OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte("k"), 32)
	appendUpTo := func(n int) {
		t.Helper()
		for i := a.Len(); i < n; i++ {
			e, err := a.Append(AuditEntry{Slot: i, Op: OpPut, Key: key, Anchor: blob.Sum(key)})
			if err != nil {
				t.Fatal(err)
			}
			if e.Seq != i {
				t.Fatalf("entry %d chained at seq %d", i, e.Seq)
			}
		}
	}
	appendUpTo(16) // first-use state (pooled writers) is not growth
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	appendUpTo(total / 2)
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap grew %d B over %d appends (bound %d)", grew, total/2-16, heapBound)
	if grew > heapBound {
		t.Errorf("heap grew %d B over %d appends, bound %d", grew, total/2-16, heapBound)
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a, err = OpenAudit(path); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != total/2 {
		t.Fatalf("reopened with %d entries, want %d", a.Len(), total/2)
	}
	appendUpTo(total)
	if a.Len() != total {
		t.Fatalf("Len = %d, want %d", a.Len(), total)
	}
	entries, err := a.ReloadFromDisk()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != total {
		t.Fatalf("auditor reads %d entries, want %d", len(entries), total)
	}
	if err := VerifyChain(entries); err != nil {
		t.Fatalf("chain across the reopen: %v", err)
	}
}

// gatedConn is the server's end of a connection with its Write calls
// counted. The first Write (the welcome frame) goes through; the second
// waits for release — a stand-in for a socket whose send takes a while,
// which holds the connection's writer goroutine mid-flush so that what
// the committer queues meanwhile is in the outbox, deterministically, when
// the writer comes back for it.
type gatedConn struct {
	net.Conn
	writes  atomic.Int64
	closed  atomic.Bool
	gate    chan struct{}
	release sync.Once
}

func (c *gatedConn) open() { c.release.Do(func() { close(c.gate) }) }

func (c *gatedConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) == 2 {
		<-c.gate
	}
	return c.Conn.Write(p)
}

func (c *gatedConn) Close() error {
	c.closed.Store(true)
	c.open()
	return c.Conn.Close()
}

// serveGated hands s a connection whose server end is a gatedConn and
// returns it with the client end, handshake done.
func serveGated(t *testing.T, s *Server) (*gatedConn, net.Conn, *bufio.Reader, int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	gc := &gatedConn{Conn: srv, gate: make(chan struct{})}
	t.Cleanup(gc.open)
	br, id := serveOn(t, s, gc, cli)
	return gc, cli, br, id
}

// servePipe hands s the server end of an in-memory connection and
// returns the client end, handshake done. A write to a net.Pipe returns
// once the other end has read all of it, and the server's reads take up
// to its whole buffer, so one write of at most readerSize bytes reaches
// the server in one fill.
func servePipe(t *testing.T, s *Server) (net.Conn, *bufio.Reader, int) {
	t.Helper()
	srv, cli := net.Pipe()
	t.Cleanup(func() { cli.Close() })
	br, id := serveOn(t, s, srv, cli)
	return cli, br, id
}

// serveOn has s serve srv and does the hello handshake on its client end
// cli.
func serveOn(t *testing.T, s *Server, srv, cli net.Conn) (*bufio.Reader, int) {
	t.Helper()
	s.wg.Add(1)
	go s.serveConn(srv)

	if err := transport.WriteFrame(cli, FrameHello, nil); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(cli)
	var fr transport.FrameReader
	kind, body, err := fr.Read(br)
	if err != nil || kind != FrameWelcome {
		t.Fatalf("handshake: kind %d, %v", kind, err)
	}
	id, err := decodeWelcome(body)
	if err != nil {
		t.Fatal(err)
	}
	return br, id
}

// pipelinePuts writes puts seq from..to in one TCP write.
func pipelinePuts(t *testing.T, conn net.Conn, client, from, to int) {
	t.Helper()
	frames := putFrames(t, client, from, to, func(int) []byte { return []byte("v") })
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
}

// putFrames encodes puts seq from..to, of key kNNN and value value(seq),
// as one stream of request frames.
func putFrames(t *testing.T, client, from, to int, value func(seq int) []byte) []byte {
	t.Helper()
	var frames bytes.Buffer
	for seq := from; seq <= to; seq++ {
		req := EncodeRequest(&Request{
			Client: client, Seq: seq, Op: ReqPut,
			Key: []byte(fmt.Sprintf("k%03d", seq)), Value: value(seq),
		})
		if err := transport.WriteFrame(&frames, FrameRequest, req); err != nil {
			t.Fatal(err)
		}
	}
	return frames.Bytes()
}

// TestBurstRepliesShareWrites: the replies to a pipelined burst leave in
// as many writes as the writer found its outbox empty, not one each. With
// the writer held in its first flush until all 32 puts are committed and
// answered, that is two writes (four allowed: the welcome is the gated
// connection's first), the replies in seq order.
func TestBurstRepliesShareWrites(t *testing.T) {
	const burst = 32
	s := startServer(t, nil)
	gc, cli, br, id := serveGated(t, s)
	pipelinePuts(t, cli, id, 1, burst)
	// Once every put is applied, the flush that applied the last ones is
	// running or done, and it queues their replies before the committer
	// takes another request: a Put from a second connection, once
	// answered, finds them all queued.
	for deadline := time.Now().Add(5 * time.Second); coreSlots(s) < burst; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d puts committed", coreSlots(s), burst)
		}
		time.Sleep(time.Millisecond)
	}
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	gc.open()

	readReplies(t, br, 1, burst)
	if w := gc.writes.Load() - 1; w > 4 {
		t.Errorf("%d replies took %d writes, want at most 4", burst, w)
	} else {
		t.Logf("%d replies in %d writes", burst, w)
	}
}

// burstValue is the benchmark's burst shape: every 16th value 4 KiB
// (anchored), the rest 64 B.
func burstValue(seq int) []byte {
	if seq%16 == 0 {
		return bytes.Repeat([]byte{byte(seq)}, 4<<10)
	}
	return bytes.Repeat([]byte{byte(seq)}, 64)
}

// readReplies reads the OK replies to seq from..to, in order.
func readReplies(t *testing.T, br *bufio.Reader, from, to int) {
	t.Helper()
	var fr transport.FrameReader
	for seq := from; seq <= to; seq++ {
		kind, body, err := fr.Read(br)
		if err != nil || kind != FrameResponse {
			t.Fatalf("reply %d: kind %d, %v", seq, kind, err)
		}
		if resp, err := DecodeResponse(body); err != nil || resp.Seq != seq || resp.Status != StatusOK {
			t.Fatalf("reply %d: %+v, %v", seq, resp, err)
		}
	}
}

// TestBurstIsOneHandOff: what arrives together commits together. With
// the committer held in a flush, the batches a connection hands over wait
// in its queue, where the test takes them out to see them and puts them
// back in order. A 32-put burst read in one fill is one batch, one ACS
// round and one audit write. Requests pipelined past maxBatch are handed
// over in batches of at most maxBatch, and each batch commits whole: a
// batch that would take a flush past maxBatch waits for the next flush
// instead of being split.
func TestBurstIsOneHandOff(t *testing.T) {
	// handOffs starts a server with mut and holds its committer; then one
	// in-memory connection per entry of bursts pipelines that many puts in
	// one write. Once every reply is in, it returns the sizes of the
	// batches handed over, the records of each audit write, the Syncs and
	// the rounds, the last three without the held Put's.
	handOffs := func(t *testing.T, mut func(*ServerConfig), bursts ...int) (batches, flushes []int, syncs, rounds int) {
		t.Helper()
		s := startServer(t, mut)
		count := &countingAudit{}
		s.core.mu.Lock()
		count.auditFile, s.core.audit.f = s.core.audit.f, count
		s.core.mu.Unlock()
		release := holdCommitter(t, s)
		before := s.Stats()
		var taken []serverBatch
		var replies []*bufio.Reader
		total := 0
		for _, n := range bursts {
			total += n
			cli, br, id := servePipe(t, s)
			replies = append(replies, br)
			frames := putFrames(t, id, 1, n, burstValue)
			if len(frames) > readerSize {
				t.Fatalf("a %d-byte burst does not fit the %d-byte read buffer", len(frames), readerSize)
			}
			if _, err := cli.Write(frames); err != nil {
				t.Fatal(err)
			}
			for got := 0; got < n; {
				select {
				case b := <-s.reqCh:
					taken = append(taken, b)
					batches = append(batches, len(b.reqs))
					got += len(b.reqs)
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d requests handed off", got, n)
				}
			}
		}
		for _, b := range taken {
			s.reqCh <- b
		}
		release(total)
		for i, n := range bursts {
			readReplies(t, replies[i], 1, n)
		}
		// The held Put, one write, is one round and the first audit write.
		return batches, count.records[1:], count.syncs - 1, s.Stats().Rounds - before.Rounds - 1
	}

	t.Run("one fill is one round", func(t *testing.T) {
		const burst = 32
		batches, flushes, syncs, rounds := handOffs(t, nil, burst)
		if !slices.Equal(batches, []int{burst}) || rounds != 1 {
			t.Fatalf("a %d-put burst was handed over as %v and took %d rounds, want one batch and one round", burst, batches, rounds)
		}
		if !slices.Equal(flushes, []int{burst}) || syncs != 1 {
			t.Fatalf("audit Writes of %v records and %d Syncs, want one of %d and one Sync", flushes, syncs, burst)
		}
	})

	t.Run("past maxBatch", func(t *testing.T) {
		// Batch 1 makes maxBatch 16. One connection pipelines 2.5 maxBatch
		// puts, another then 10: their batch cannot join the first's last 8.
		batches, flushes, _, _ := handOffs(t, func(cfg *ServerConfig) { cfg.Core.Batch = 1 }, 40, 10)
		want := []int{16, 16, 8, 10}
		if !slices.Equal(batches, want) || !slices.Equal(flushes, want) {
			t.Fatalf("hand-offs %v and flushes %v, want %v for both", batches, flushes, want)
		}
	})
}

// TestFullOutboxStillDisconnects: buffering the writes must not turn the
// full-outbox rule into a drop. With the writer stuck flushing the first
// reply, the replies to 100 more puts overrun the 64-frame outbox and
// close the connection; the client sees the stream end, not a gap.
func TestFullOutboxStillDisconnects(t *testing.T) {
	const depth = 101
	s := startServer(t, func(cfg *ServerConfig) {
		cfg.Core.Batch = 64
	})
	gc, cli, br, id := serveGated(t, s)
	pipelinePuts(t, cli, id, 1, 1)
	for deadline := time.Now().Add(5 * time.Second); gc.writes.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the first reply was never written")
		}
		time.Sleep(time.Millisecond)
	}
	pipelinePuts(t, cli, id, 2, depth)

	var fr transport.FrameReader
	got := 0
	for ; got <= depth; got++ {
		kind, body, err := fr.Read(br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("connection open but stalled after %d replies", got)
			}
			break
		}
		resp, err := DecodeResponse(body)
		if err != nil || kind != FrameResponse || resp.Seq != got+1 {
			t.Fatalf("reply %d: kind %d, %+v, %v", got+1, kind, resp, err)
		}
	}
	if got >= depth {
		t.Fatalf("all %d replies arrived through a 64-frame outbox and a stuck writer", got)
	}
	if !gc.closed.Load() {
		t.Error("stream ended but the server never closed the connection")
	}
	t.Logf("%d of %d replies, then a disconnect", got, depth)
}
