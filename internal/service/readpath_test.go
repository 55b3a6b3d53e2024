package service

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptiveba/internal/transport"
)

// A Get is served on its connection's reader goroutine, concurrently with
// the run loop's commits. The tests here are that read path's license:
// recorded concurrent histories checked for stale reads, every way the run
// loop disposes of a write checked not to wedge the reads behind it, and
// the Core's fail-stop on a storage error.

// histOp is one completed operation of a recorded client history.
type histOp struct {
	conn  int    // the connection that issued it
	op    byte   // ReqPut, ReqDel or ReqGet
	key   string // every op names one key
	value string // a Put's value; a Get's result when found
	found bool   // a Get found a value
	// invoke is taken before the first transmission, complete after the
	// reply is read.
	invoke, complete time.Duration
	// first and last are the positions of the op's first and last
	// transmission in its connection's request stream.
	first, last int
}

// history collects operations from concurrent clients on one clock.
type history struct {
	start time.Time
	mu    sync.Mutex
	ops   []histOp
}

func (h *history) now() time.Duration { return time.Since(h.start) }

func (h *history) add(ops ...histOp) {
	h.mu.Lock()
	h.ops = append(h.ops, ops...)
	h.mu.Unlock()
}

// histKeys are the keys every client of a history shares.
var histKeys = []string{"k0", "k1", "k2", "k3"}

// histValue is the unique value of op i of connection conn. Every fourth
// is longer than the test servers' InlineMax, so it is anchored.
func histValue(conn, i int) string {
	v := fmt.Sprintf("c%d-op%d", conn, i)
	if i%4 == 3 {
		v += strings.Repeat(".", 100)
	}
	return v
}

// syncClient runs n random operations over histKeys through one
// synchronous Client: half Gets, the rest mostly Puts and some Dels, or
// only Gets when readOnly.
func syncClient(h *history, conn int, c *Client, seed int64, n int, readOnly bool) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		o := histOp{conn: conn, key: histKeys[rng.Intn(len(histKeys))], first: i, last: i}
		switch r := rng.Intn(10); {
		case readOnly || r < 5:
			o.op = ReqGet
		case r < 9:
			o.op, o.value = ReqPut, histValue(conn, i)
		default:
			o.op = ReqDel
		}
		o.invoke = h.now()
		var err error
		switch o.op {
		case ReqGet:
			var v []byte
			if v, err = c.Get([]byte(o.key)); err == nil {
				o.found, o.value = true, string(v)
			} else if errors.Is(err, ErrNotFound) {
				err = nil
			}
		case ReqPut:
			err = c.Put([]byte(o.key), []byte(o.value))
		case ReqDel:
			err = c.Del([]byte(o.key))
		}
		o.complete = h.now()
		if err != nil {
			return fmt.Errorf("connection %d op %d (%d %s): %w", conn, i, o.op, o.key, err)
		}
		h.add(o)
	}
	return nil
}

// redialer runs n operations like syncClient, in bursts of eight over a
// fresh connection each: it closes its client and dials again between
// bursts, so each burst is a new session, with a new client ID and seqs
// from 1 again. Burst b is recorded as connection conn+b.
func redialer(h *history, conn int, addr string, cfg ClientConfig, seed int64, n int) error {
	const burst = 8
	for b := 0; b*burst < n; b++ {
		c, err := Dial(addr, cfg)
		if err != nil {
			return err
		}
		err = syncClient(h, conn+b, c, seed+int64(b), min(burst, n-b*burst), false)
		c.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// pipeliner sends bursts of six requests over one raw connection, each
// burst in one TCP write: a Put, a write, a Get of the first Put's key, a
// Get of a random key, two more writes. Requests still unanswered after
// timeout are sent again, unchanged, in one write.
func pipeliner(h *history, conn int, c *Client, seed int64, bursts int, timeout time.Duration) error {
	rng := rand.New(rand.NewSource(seed))
	seq, pos := 0, 0
	randomWrite := func(o *histOp) {
		o.key = histKeys[rng.Intn(len(histKeys))]
		if rng.Intn(5) == 0 {
			o.op = ReqDel
		} else {
			o.op, o.value = ReqPut, histValue(conn, seq)
		}
	}
	for b := 0; b < bursts; b++ {
		burst := make([]histOp, 6)
		bySeq := make(map[int]*histOp)
		reqs := make(map[*histOp]*Request)
		for i := range burst {
			o := &burst[i]
			seq++
			o.conn = conn
			switch i {
			case 0:
				o.op, o.key, o.value = ReqPut, histKeys[rng.Intn(len(histKeys))], histValue(conn, seq)
			case 2:
				o.op, o.key = ReqGet, burst[0].key
			case 3:
				o.op, o.key = ReqGet, histKeys[rng.Intn(len(histKeys))]
			default:
				randomWrite(o)
			}
			bySeq[seq] = o
			reqs[o] = &Request{Client: c.ID(), Seq: seq, Op: o.op, Key: []byte(o.key), Value: []byte(o.value)}
		}
		unanswered := len(burst)
		for attempt := 0; unanswered > 0; attempt++ {
			if attempt == 40 {
				return fmt.Errorf("connection %d: burst %d unanswered after %d attempts", conn, b, attempt)
			}
			var frames bytes.Buffer
			now := h.now()
			for i := range burst {
				o := &burst[i]
				if reqs[o] == nil {
					continue // answered
				}
				if attempt == 0 {
					o.invoke, o.first = now, pos
				}
				o.last = pos
				pos++
				if err := transport.WriteFrame(&frames, FrameRequest, EncodeRequest(reqs[o])); err != nil {
					return err
				}
			}
			if _, err := c.conn.Write(frames.Bytes()); err != nil {
				return err
			}
			c.conn.SetReadDeadline(time.Now().Add(timeout))
			for unanswered > 0 {
				kind, body, err := c.fr.Read(c.br)
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					break // send what is unanswered again
				}
				if err != nil {
					return err
				}
				if kind != FrameResponse {
					continue
				}
				resp, err := DecodeResponse(body)
				if err != nil {
					return err
				}
				o := bySeq[resp.Seq]
				if o == nil || reqs[o] == nil {
					continue // a reply to a copy already answered
				}
				o.complete = h.now()
				err = ResponseErr(resp)
				switch {
				case o.op == ReqGet && err == nil:
					o.found, o.value = true, string(resp.Value)
				case o.op == ReqGet && errors.Is(err, ErrNotFound):
				case err != nil:
					return fmt.Errorf("connection %d seq %d: %w", conn, resp.Seq, err)
				}
				reqs[o] = nil
				unanswered--
			}
		}
		h.add(burst...)
	}
	return nil
}

// checkHistory checks every Get of a history in which each Put wrote a
// unique value.
//
//   - Per key: the Get returns the initial absence or the result of a
//     write w to its key that began before the Get completed, and no other
//     write to that key began after w completed and completed before the
//     Get began. An absent result may come from any Del of the key.
//   - Per connection: let w be the connection's last write to the key
//     whose every transmission precedes the Get's first. The Get does not
//     return anything older than w: not the initial absence unless w is a
//     Del, not a write that completed before w began, and, when ordered,
//     not one of the connection's own writes before w.
//
// ordered says the server applies each connection's writes in the order
// they were sent. It does unless chaos delays some of them: a delayed
// write is applied after the pipelined writes behind it.
func checkHistory(ops []histOp, ordered bool) error {
	byValue := make(map[string]*histOp)
	writes := make(map[string][]*histOp)
	for i := range ops {
		o := &ops[i]
		if o.op == ReqGet {
			continue
		}
		if o.op == ReqPut {
			if byValue[o.value] != nil {
				return fmt.Errorf("value %q written twice", o.value)
			}
			byValue[o.value] = o
		}
		writes[o.key] = append(writes[o.key], o)
	}
	// fresh reports whether a Get of g's key may return src's result (nil
	// src: the initial absence).
	fresh := func(g, src *histOp) bool {
		srcComplete := time.Duration(-1)
		if src != nil {
			if src.invoke >= g.complete {
				return false
			}
			srcComplete = src.complete
		}
		for _, w := range writes[g.key] {
			if w != src && w.invoke > srcComplete && w.complete < g.invoke {
				return false
			}
		}
		return true
	}
	for i := range ops {
		g := &ops[i]
		if g.op != ReqGet {
			continue
		}
		var sources []*histOp
		if g.found {
			w := byValue[g.value]
			if w == nil || w.key != g.key {
				return fmt.Errorf("connection %d read %q from %s: never written there", g.conn, g.value, g.key)
			}
			sources = []*histOp{w}
		} else {
			sources = []*histOp{nil}
			for _, w := range writes[g.key] {
				if w.op == ReqDel {
					sources = append(sources, w)
				}
			}
		}
		ok := false
		for _, src := range sources {
			ok = ok || fresh(g, src)
		}
		if !ok {
			return fmt.Errorf("connection %d stream position %d: Get %s returned found=%t %q, overwritten before the Get began", g.conn, g.first, g.key, g.found, g.value)
		}

		var own *histOp
		for _, w := range writes[g.key] {
			if w.conn == g.conn && w.last < g.first && (own == nil || w.first > own.first) {
				own = w
			}
		}
		if own == nil {
			continue
		}
		older := func(src *histOp) bool {
			return src == nil || src.complete < own.invoke || (ordered && src.conn == g.conn && src.first < own.first)
		}
		switch {
		case g.found && older(byValue[g.value]):
			return fmt.Errorf("connection %d stream position %d: Get %s returned %q, older than its own earlier write at position %d", g.conn, g.first, g.key, g.value, own.first)
		case !g.found && own.op == ReqPut:
			explained := false
			for _, src := range sources[1:] {
				explained = explained || (src.invoke < g.complete && !older(src))
			}
			if !explained {
				return fmt.Errorf("connection %d stream position %d: Get %s found nothing after its own Put at position %d", g.conn, g.first, g.key, own.first)
			}
		}
	}
	return nil
}

// TestConcurrentHistory records a history from five concurrent clients —
// two synchronous clients mixing Put, Del and Get, a raw pipelining
// writer with Gets in the middle of its bursts, a client that only reads,
// and one that mixes like the first two but redials between bursts — and
// checks it with checkHistory, plainly and with requests dropped and
// delayed by the chaos schedule.
func TestConcurrentHistory(t *testing.T) {
	for _, tc := range []struct {
		name    string
		chaos   transport.ChaosConfig
		timeout time.Duration
		ops     int // per synchronous client; the pipeliner sends ops/4 bursts
	}{
		{"plain", transport.ChaosConfig{}, 2 * time.Second, 160},
		{"chaos", transport.ChaosConfig{Seed: 42, DropRate: 0.1, DelayRate: 0.2, MaxDelay: 5 * time.Millisecond}, 100 * time.Millisecond, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := tc.ops
			if testing.Short() {
				ops /= 4
			}
			s := startServer(t, func(cfg *ServerConfig) { cfg.Chaos = tc.chaos })
			cfg := ClientConfig{Timeout: tc.timeout, Retries: 40}
			clients := make([]*Client, 4)
			for i := range clients {
				c, err := Dial(s.Addr(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			h := &history{start: time.Now()}
			errs := make(chan error, len(clients)+1)
			go func() { errs <- syncClient(h, 0, clients[0], 1, ops, false) }()
			go func() { errs <- syncClient(h, 1, clients[1], 2, ops, false) }()
			go func() { errs <- pipeliner(h, 2, clients[2], 3, ops/4, tc.timeout) }()
			go func() { errs <- syncClient(h, 3, clients[3], 4, ops, true) }()
			go func() { errs <- redialer(h, 4, s.Addr(), cfg, 5, ops) }()
			for range len(clients) + 1 {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if err := checkHistory(h.ops, !tc.chaos.Enabled()); err != nil {
				t.Fatal(err)
			}
			gets := 0
			for _, o := range h.ops {
				if o.op == ReqGet {
					gets++
				}
			}
			t.Logf("%d operations, %d of them Gets, all fresh", len(h.ops), gets)
		})
	}
}

// TestCheckHistoryCatchesStaleReads: the checker refuses a read of an
// overwritten value and a pipelined read that misses its own earlier
// write, and it accepts a connection's pipelined writes applied out of
// order only when chaos delays may have reordered them.
func TestCheckHistoryCatchesStaleReads(t *testing.T) {
	put := func(conn int, v string, invoke, complete time.Duration, pos int) histOp {
		return histOp{conn: conn, op: ReqPut, key: "k", value: v, invoke: invoke, complete: complete, first: pos, last: pos}
	}
	get := func(conn int, v string, invoke, complete time.Duration, pos int) histOp {
		return histOp{conn: conn, op: ReqGet, key: "k", value: v, found: v != "", invoke: invoke, complete: complete, first: pos, last: pos}
	}
	for _, tc := range []struct {
		name      string
		ops       []histOp
		stale     bool
		unordered bool
	}{
		{"fresh", []histOp{put(0, "a", 1, 2, 0), put(0, "b", 3, 4, 1), get(1, "b", 5, 6, 0)}, false, false},
		{"concurrent write may be missed", []histOp{put(0, "a", 1, 2, 0), put(0, "b", 3, 6, 1), get(1, "a", 4, 5, 0)}, false, false},
		{"overwritten", []histOp{put(0, "a", 1, 2, 0), put(0, "b", 3, 4, 1), get(1, "a", 5, 6, 0)}, true, false},
		{"absent after a put", []histOp{put(0, "a", 1, 2, 0), get(1, "", 3, 4, 0)}, true, false},
		{"pipelined own write missed", []histOp{put(0, "a", 1, 2, 0), put(1, "b", 3, 6, 0), get(1, "a", 3, 5, 1)}, true, false},
		{"pipelined own write read", []histOp{put(0, "a", 1, 2, 0), put(1, "b", 3, 6, 0), get(1, "b", 3, 5, 1)}, false, false},
		{"pipelined own writes reordered", []histOp{put(1, "a", 1, 4, 0), put(1, "b", 1, 4, 1), get(1, "a", 2, 5, 2)}, true, false},
		{"pipelined own writes reordered by chaos", []histOp{put(1, "a", 1, 4, 0), put(1, "b", 1, 4, 1), get(1, "a", 2, 5, 2)}, false, true},
	} {
		if err := checkHistory(tc.ops, !tc.unordered); (err != nil) != tc.stale {
			t.Errorf("%s: checkHistory = %v, want stale=%t", tc.name, err, tc.stale)
		}
	}
}

// sendFrames writes reqs to c's connection in one write.
func sendFrames(t *testing.T, c *Client, reqs ...*Request) {
	t.Helper()
	var frames bytes.Buffer
	for _, q := range reqs {
		if err := transport.WriteFrame(&frames, FrameRequest, EncodeRequest(q)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.conn.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// holdRunLoop parks s's run loop in an Inspect. The function it returns
// waits until queued requests sit in the run loop's queue, then lets the
// loop go, so the requests sent in between reach it together and are
// buffered for one flush.
func holdRunLoop(t *testing.T, s *Server) (release func(queued int)) {
	t.Helper()
	held, done := make(chan struct{}), make(chan struct{})
	go s.Inspect(func(*Core) { close(held); <-done })
	<-held
	return func(queued int) {
		t.Helper()
		defer close(done)
		for deadline := time.Now().Add(5 * time.Second); len(s.reqCh) < queued; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d requests reached the run loop's queue", len(s.reqCh), queued)
			}
		}
	}
}

// awaitReply reads c's replies until the one to seq, which must come
// within the client's timeout.
func awaitReply(t *testing.T, c *Client, seq int) *Response {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(c.cfg.Timeout))
	for {
		kind, body, err := c.fr.Read(c.br)
		if err != nil {
			t.Fatalf("no reply to seq %d: %v", seq, err)
		}
		if kind != FrameResponse {
			continue
		}
		resp, err := DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq == seq {
			return resp
		}
	}
}

// TestDisposedWriteNeverWedgesReads: a Get waits for the writes its
// connection sent before it, so every way the server disposes of a write
// must release that wait. In each case a Get pipelined behind the write
// is answered within the client timeout, with what it should read.
func TestDisposedWriteNeverWedgesReads(t *testing.T) {
	key, val := []byte("k"), []byte("v")
	dial := func(t *testing.T, s *Server) *Client {
		t.Helper()
		c, err := Dial(s.Addr(), ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	put := func(c *Client, seq int, v []byte) *Request {
		return &Request{Client: c.ID(), Seq: seq, Op: ReqPut, Key: key, Value: v}
	}
	get := func(c *Client, seq int) *Request {
		return &Request{Client: c.ID(), Seq: seq, Op: ReqGet, Key: key}
	}
	wantValue := func(t *testing.T, resp *Response, want []byte) {
		t.Helper()
		if err := ResponseErr(resp); err != nil || !bytes.Equal(resp.Value, want) {
			t.Fatalf("Get read %q (%v), want %q", resp.Value, err, want)
		}
	}
	wantAbsent := func(t *testing.T, resp *Response) {
		t.Helper()
		if err := ResponseErr(resp); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get: %v (%q), want ErrNotFound", err, resp.Value)
		}
	}

	t.Run("replayed from the dedup window", func(t *testing.T) {
		s := startServer(t, nil)
		c := dial(t, s)
		sendFrames(t, c, put(c, 1, val))
		awaitReply(t, c, 1)
		sendFrames(t, c, put(c, 1, val), get(c, 2))
		if resp := awaitReply(t, c, 1); resp.Status != StatusOK {
			t.Fatalf("replay: %+v", resp)
		}
		wantValue(t, awaitReply(t, c, 2), val)
	})

	t.Run("refused for exceeding MaxValue", func(t *testing.T) {
		// DecodeRequest refuses the value on the reader, so the run loop
		// never sees it and nothing is waited for.
		s := startServer(t, nil)
		c := dial(t, s)
		sendFrames(t, c, put(c, 1, make([]byte, MaxValue+1)), get(c, 2))
		wantAbsent(t, awaitReply(t, c, 2))
	})

	t.Run("dropped by chaos", func(t *testing.T) {
		// A seed whose first verdict drops and whose second delivers: the
		// Put's verdict is drawn first, because the Get waits for the Put
		// before it draws its own.
		cfg := transport.ChaosConfig{DropRate: 0.5}
		for ; ; cfg.Seed++ {
			v := transport.NewChaosVerdicts(cfg, 0, 4, time.Millisecond)
			v.Tick(1)
			drop1, _ := v.Verdict(1)
			v.Tick(2)
			drop2, _ := v.Verdict(1)
			if drop1 && !drop2 {
				break
			}
		}
		s := startServer(t, func(sc *ServerConfig) { sc.Chaos = cfg })
		c := dial(t, s)
		if c.ID()%s.core.cfg.N != 1 {
			t.Fatalf("client %d folds onto verdict target %d, not 1", c.ID(), c.ID()%s.core.cfg.N)
		}
		sendFrames(t, c, put(c, 1, val), get(c, 2))
		wantAbsent(t, awaitReply(t, c, 2))
	})

	t.Run("ignored as a queued retransmit", func(t *testing.T) {
		// The run loop is held in an Inspect until both copies of the Put
		// wait in its queue, so the second finds the first buffered.
		s := startServer(t, nil)
		c := dial(t, s)
		release := holdRunLoop(t, s)
		sendFrames(t, c, put(c, 1, val), put(c, 1, val), get(c, 2))
		release(2)
		if resp := awaitReply(t, c, 1); resp.Status != StatusOK {
			t.Fatalf("put: %+v", resp)
		}
		wantValue(t, awaitReply(t, c, 2), val)
		if n := coreSlots(s); n != 1 {
			t.Fatalf("%d slots committed for one Put sent twice", n)
		}
	})

	t.Run("pipelined put then get reads the put", func(t *testing.T) {
		s := startServer(t, nil)
		c := dial(t, s)
		for i := 1; i <= 50; i++ {
			v := []byte(histValue(0, i))
			sendFrames(t, c, put(c, 2*i-1, v), get(c, 2*i))
			wantValue(t, awaitReply(t, c, 2*i), v)
		}
	})
}

// errAuditFull is the storage error failingAudit injects.
var errAuditFull = errors.New("audit device full")

var val1 = []byte("v1")

// failingAudit is an audit file whose writes fail once left reaches zero.
type failingAudit struct {
	auditFile
	left int
}

func (f *failingAudit) Write(p []byte) (int, error) {
	if f.left == 0 {
		return 0, errAuditFull
	}
	f.left--
	return f.auditFile.Write(p)
}

// TestAuditFailureStopsCore: when the audit file fails in the middle of a
// flush, the kv store holds exactly the audited entries — Restore, which
// replays the retained log, agrees with StateHash — and the Core stops:
// every later Commit and Get returns the storage error, so no value the
// audit chain lacks is ever served.
func TestAuditFailureStopsCore(t *testing.T) {
	keys := []string{"k1", "k2", "k3", "k4"}
	checkStopped := func(t *testing.T, c *Core, audited int) {
		t.Helper()
		if got, err := c.Restore(); err != nil || got != c.StateHash() {
			t.Fatalf("Restore %s (%v), StateHash %s", got, err, c.StateHash())
		}
		if c.Audit().Len() != audited || c.Slots() != audited {
			t.Fatalf("audit %d entries, %d slots; want %d each", c.Audit().Len(), c.Slots(), audited)
		}
		for _, k := range append(keys, "k0") {
			if v, err := c.Get([]byte(k)); !errors.Is(err, errAuditFull) {
				t.Fatalf("Get %s after the failure: %q, %v; want the storage error", k, v, err)
			}
		}
		if _, err := c.Commit([]Op{{Op: OpPut, Key: []byte("later"), Value: val1}}); !errors.Is(err, errAuditFull) {
			t.Fatalf("Commit after the failure: %v, want the storage error", err)
		}
		entries, err := c.Audit().ReloadFromDisk()
		if err != nil || len(entries) != audited || VerifyChain(entries) != nil {
			t.Fatalf("audit file: %d entries, %v", len(entries), err)
		}
	}

	t.Run("core", func(t *testing.T) {
		c := testCore(t, nil)
		if _, err := c.Commit([]Op{{Op: OpPut, Key: []byte("k0"), Value: val1}}); err != nil {
			t.Fatal(err)
		}
		c.audit.f = &failingAudit{auditFile: c.audit.f, left: 2}
		var ops []Op
		for i, k := range keys {
			ops = append(ops, Op{Op: OpPut, Key: []byte(k), Value: []byte(histValue(0, i))})
		}
		if _, err := c.Commit(ops); !errors.Is(err, errAuditFull) {
			t.Fatalf("Commit across the failure: %v, want the storage error", err)
		}
		for _, k := range keys[2:] {
			if _, ok := c.store.Get(encKey([]byte(k))); ok {
				t.Fatalf("%s was applied without its audit record", k)
			}
		}
		checkStopped(t, c, 3)
	})

	t.Run("server", func(t *testing.T) {
		s := startServer(t, nil)
		c, err := Dial(s.Addr(), ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Put([]byte("k0"), val1); err != nil {
			t.Fatal(err)
		}
		s.Inspect(func(core *Core) { core.audit.f = &failingAudit{auditFile: core.audit.f, left: 1} })
		var burst []*Request
		for i, k := range keys {
			burst = append(burst, &Request{Client: c.ID(), Seq: 2 + i, Op: ReqPut, Key: []byte(k), Value: []byte(histValue(0, i))})
		}
		burst = append(burst, &Request{Client: c.ID(), Seq: 6, Op: ReqGet, Key: []byte("k3")})
		sendFrames(t, c, burst...)
		if resp := awaitReply(t, c, 6); resp.Status == StatusOK {
			t.Fatalf("Get of a key written across the failure served %q", resp.Value)
		}
		for _, k := range append(keys, "k0") {
			if v, err := c.Get([]byte(k)); err == nil {
				t.Fatalf("Get %s after the failure served %q", k, v)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// k0, then k1 on the one write left, whether or not k1 shared
		// a flush with the rest of the burst.
		checkStopped(t, s.core, 2)
	})
}
