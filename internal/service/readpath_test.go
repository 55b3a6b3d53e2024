package service

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptiveba/internal/blob"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/transport"
)

// A Get is served on its connection's reader goroutine, concurrently with
// the commits of the committer, the reader that holds Server.commitMu.
// The tests here are that read path's license: recorded concurrent
// histories checked for stale reads, every way the committer disposes of
// a write checked not to wedge the reads behind it, and the Core's
// fail-stop on a storage error.

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

// redialStride separates the sessions of one pipeliner in a history:
// its session s is recorded as connection conn + s·redialStride.
const redialStride = 1000

// pending is the completion time recorded for a write whose session
// broke before it was answered: it may take effect at any time after it
// was invoked, or never.
const pending = time.Duration(math.MaxInt64)

// pipeliner sends bursts of six requests over one raw connection, each
// burst in one TCP write: a Put, a write, a Get of the first Put's key, a
// Get of a random key, two more writes. Requests still unanswered after
// the client timeout are sent again, unchanged, in one write. When the
// connection breaks, it dials again and sends each unanswered request as
// a new request of the new session, a Put with a new value; the writes
// the broken session left unanswered are recorded as pending.
func pipeliner(h *history, conn int, addr string, cfg ClientConfig, seed int64, bursts int) error {
	c, err := Dial(addr, cfg)
	if err != nil {
		return err
	}
	defer func() { c.Close() }()
	rng := rand.New(rand.NewSource(seed))
	session, seq, pos := conn, 0, 0
	burst := make([]histOp, 6)
	reqs := make([]*Request, len(burst)) // burst[i]'s request; nil once answered
	// request makes burst[i] the session's next request.
	request := func(i int) {
		o := &burst[i]
		seq++
		o.conn = session
		if o.op == ReqPut {
			o.value = histValue(session, seq)
		}
		reqs[i] = &Request{Client: c.ID(), Seq: seq, Op: o.op, Key: []byte(o.key), Value: []byte(o.value)}
	}
	for b := 0; b < bursts; b++ {
		for i := range burst {
			o := &burst[i]
			*o = histOp{key: histKeys[rng.Intn(len(histKeys))]}
			switch {
			case i == 0:
				o.op = ReqPut
			case i == 2:
				o.op, o.key = ReqGet, burst[0].key
			case i == 3:
				o.op = ReqGet
			case rng.Intn(5) == 0:
				o.op = ReqDel
			default:
				o.op = ReqPut
			}
			request(i)
		}
		unanswered, sent := len(burst), false
		for attempt := 0; unanswered > 0; attempt++ {
			if attempt == 40 {
				return fmt.Errorf("connection %d: burst %d unanswered after %d attempts", conn, b, attempt)
			}
			var frames bytes.Buffer
			now := h.now()
			for i, q := range reqs {
				if q == nil {
					continue // answered
				}
				if !sent {
					burst[i].invoke, burst[i].first = now, pos
				}
				burst[i].last = pos
				pos++
				if err := transport.WriteFrame(&frames, FrameRequest, EncodeRequest(q)); err != nil {
					return err
				}
			}
			sent = true
			_, err := c.conn.Write(frames.Bytes())
			c.conn.SetReadDeadline(time.Now().Add(c.cfg.Timeout))
			for err == nil && unanswered > 0 {
				var kind byte
				var body []byte
				if kind, body, err = c.fr.Read(c.br); err != nil || kind != FrameResponse {
					continue
				}
				resp, derr := DecodeResponse(body)
				if derr != nil {
					return derr
				}
				i := slices.IndexFunc(reqs, func(q *Request) bool { return q != nil && q.Seq == resp.Seq })
				if i < 0 {
					continue // a reply to a copy already answered
				}
				o := &burst[i]
				o.complete = h.now()
				switch rerr := ResponseErr(resp); {
				case o.op == ReqGet && rerr == nil:
					o.found, o.value = true, string(resp.Value)
				case o.op == ReqGet && errors.Is(rerr, ErrNotFound):
				case rerr != nil:
					return fmt.Errorf("connection %d seq %d: %w", conn, resp.Seq, rerr)
				}
				reqs[i] = nil
				unanswered--
			}
			var ne net.Error
			if err == nil || errors.As(err, &ne) && ne.Timeout() {
				continue // send what is unanswered again
			}
			// The connection broke.
			for i, q := range reqs {
				if q != nil && burst[i].op != ReqGet {
					o := burst[i]
					o.complete = pending
					h.add(o)
				}
			}
			c.Close()
			if c, err = Dial(addr, cfg); err != nil {
				return err
			}
			session += redialStride
			for i, q := range reqs {
				if q != nil {
					request(i)
				}
			}
			sent = false
		}
		h.add(burst...)
	}
	return nil
}

// checkHistory checks every Get of a history in which each Put wrote a
// unique value. A write recorded as pending may take effect at any time
// after it was invoked, or never.
//
//   - Per key: the Get returns the initial absence or the result of a
//     write w to its key that began before the Get completed, and no other
//     write to that key began after w completed and completed before the
//     Get began. An absent result may come from any Del of the key.
//   - Per connection: let w be the connection's last write to the key
//     whose every transmission precedes the Get's first. The Get does not
//     return anything older than w: not the initial absence unless w is a
//     Del, not a write that completed before w began, and not one of the
//     connection's own writes whose every transmission precedes w's first.
//     A write sent again after w was first sent may take effect after w.
func checkHistory(ops []histOp) error {
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
			return src == nil || src.complete < own.invoke || (src.conn == g.conn && src.last < own.first)
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
// checks it with checkHistory, plainly and over a link that drops and
// delays requests and replies but keeps each connection's order.
func TestConcurrentHistory(t *testing.T) {
	for _, tc := range []struct {
		name    string
		loss    *testenv.Faults
		timeout time.Duration
		ops     int // per synchronous client; the pipeliner sends ops/4 bursts
	}{
		{"plain", nil, 2 * time.Second, 160},
		{"chaos", &testenv.Faults{Seed: 42, Kinds: dataFrames, Drop: 0.1, Delay: 0.2, MaxDelay: 5 * time.Millisecond}, 100 * time.Millisecond, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := tc.ops
			if testing.Short() {
				ops /= 4
			}
			s := startServer(t, nil)
			addr := s.Addr()
			if tc.loss != nil {
				addr = tc.loss.Proxy(t, addr)
			}
			cfg := ClientConfig{Timeout: tc.timeout, Retries: 40}
			h := &history{start: time.Now()}
			synchronous := func(conn int, seed int64, readOnly bool) func() error {
				return func() error {
					c, err := Dial(addr, cfg)
					if err != nil {
						return err
					}
					defer c.Close()
					return syncClient(h, conn, c, seed, ops, readOnly)
				}
			}
			clients := []func() error{
				synchronous(0, 1, false),
				synchronous(1, 2, false),
				func() error { return pipeliner(h, 2, addr, cfg, 3, ops/4) },
				synchronous(3, 4, true),
				func() error { return redialer(h, 4, addr, cfg, 5, ops) },
			}
			errs := make(chan error, len(clients))
			for _, run := range clients {
				go func() { errs <- run() }()
			}
			for range clients {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if err := checkHistory(h.ops); err != nil {
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

// TestDisconnectMidBurst: the link is cut once some of a pipelined
// burst's requests have reached the server, with the rest of the burst
// and its replies in flight. Each of two pipeliners dials again and sends
// what was unanswered as the new session's requests. The history, in
// which every write a cut left unanswered may or may not have taken
// effect, ends with a read of every key over an unbroken connection and
// passes checkHistory; every acknowledged write is in the audit chain.
func TestDisconnectMidBurst(t *testing.T) {
	bursts := 40
	if testing.Short() {
		bursts = 10
	}
	s := startServer(t, nil)
	addr := (&testenv.Faults{Seed: 7, Kinds: dataFrames, CutWithin: 20}).Proxy(t, s.Addr())
	h := &history{start: time.Now()}
	errs := make(chan error, 2)
	for conn := range 2 {
		go func() { errs <- pipeliner(h, conn, addr, ClientConfig{}, int64(conn+1), bursts) }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, key := range histKeys {
		o := histOp{conn: -1, op: ReqGet, key: key, invoke: h.now(), first: i, last: i}
		v, err := c.Get([]byte(key))
		o.complete = h.now()
		if err == nil {
			o.found, o.value = true, string(v)
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		h.add(o)
	}
	if err := checkHistory(h.ops); err != nil {
		t.Fatal(err)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := s.core.audit.ReloadFromDisk()
	if err != nil {
		t.Fatal(err)
	}
	type record struct {
		op     byte
		key    string
		anchor blob.Ref
	}
	committed := make(map[record]bool)
	for _, e := range entries {
		committed[record{e.Op, string(e.Key), e.Anchor}] = true
	}
	acked, cut := 0, 0
	for _, o := range h.ops {
		switch {
		case o.op == ReqGet:
		case o.complete == pending:
			cut++
		case o.op == ReqPut && !committed[record{OpPut, o.key, anchorOf([]byte(o.value))}],
			o.op == ReqDel && !committed[record{OpDel, o.key, blob.Ref{}}]:
			t.Fatalf("connection %d: acknowledged write at position %d to %s is not in the audit chain", o.conn, o.first, o.key)
		default:
			acked++
		}
	}
	if cut == 0 {
		t.Fatal("no write was left unanswered by a cut")
	}
	t.Logf("%d writes acknowledged, all in the audit chain; %d left unanswered by a cut", acked, cut)
}

// TestCheckHistoryCatchesStaleReads: the checker refuses a read of an
// overwritten value and a pipelined read that misses its own earlier
// write. It accepts a connection's write taking effect after a later one
// only when the earlier write was sent again after the later one, and a
// pending write taking effect late.
func TestCheckHistoryCatchesStaleReads(t *testing.T) {
	put := func(conn int, v string, invoke, complete time.Duration, pos int) histOp {
		return histOp{conn: conn, op: ReqPut, key: "k", value: v, invoke: invoke, complete: complete, first: pos, last: pos}
	}
	get := func(conn int, v string, invoke, complete time.Duration, pos int) histOp {
		return histOp{conn: conn, op: ReqGet, key: "k", value: v, found: v != "", invoke: invoke, complete: complete, first: pos, last: pos}
	}
	resent := func(o histOp, last int) histOp { o.last = last; return o }
	for _, tc := range []struct {
		name  string
		ops   []histOp
		stale bool
	}{
		{"fresh", []histOp{put(0, "a", 1, 2, 0), put(0, "b", 3, 4, 1), get(1, "b", 5, 6, 0)}, false},
		{"concurrent write may be missed", []histOp{put(0, "a", 1, 2, 0), put(0, "b", 3, 6, 1), get(1, "a", 4, 5, 0)}, false},
		{"overwritten", []histOp{put(0, "a", 1, 2, 0), put(0, "b", 3, 4, 1), get(1, "a", 5, 6, 0)}, true},
		{"absent after a put", []histOp{put(0, "a", 1, 2, 0), get(1, "", 3, 4, 0)}, true},
		{"pipelined own write missed", []histOp{put(0, "a", 1, 2, 0), put(1, "b", 3, 6, 0), get(1, "a", 3, 5, 1)}, true},
		{"pipelined own write read", []histOp{put(0, "a", 1, 2, 0), put(1, "b", 3, 6, 0), get(1, "b", 3, 5, 1)}, false},
		{"pipelined own writes reordered", []histOp{put(1, "a", 1, 4, 0), put(1, "b", 1, 4, 1), get(1, "a", 2, 5, 2)}, true},
		{"own write sent again after a later one", []histOp{resent(put(1, "a", 1, 6, 0), 2), put(1, "b", 1, 4, 1), get(1, "a", 5, 7, 3)}, false},
		{"pending write takes effect late", []histOp{put(0, "a", 1, pending, 0), put(1, "b", 2, 3, 0), get(1, "a", 4, 5, 1)}, false},
	} {
		if err := checkHistory(tc.ops); (err != nil) != tc.stale {
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

// gatedAudit is an audit file whose first write waits until open is
// closed, with the committer inside a flush.
type gatedAudit struct {
	auditFile
	entered, open chan struct{}
}

func (g *gatedAudit) Write(p []byte) (int, error) {
	select {
	case <-g.entered:
	default:
		close(g.entered)
		<-g.open
	}
	return g.auditFile.Write(p)
}

// handedOff counts the requests s's connections have queued for the
// committer and it has not yet disposed of.
func handedOff(s *Server) int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	n := 0
	for c := range s.conns {
		n += int(c.inRun.Load())
	}
	return n
}

// holdCommitter parks s's committer inside a flush: over a connection of
// its own it sends a Put whose audit write waits at a gate. The function
// it returns waits until queued requests besides the held Put have been
// handed over, then opens the gate, so the requests sent in between
// reach the committer together and are buffered for one flush. The held
// Put is one more committed slot.
func holdCommitter(t *testing.T, s *Server) (release func(queued int)) {
	t.Helper()
	gate := &gatedAudit{entered: make(chan struct{}), open: make(chan struct{})}
	s.core.mu.Lock()
	gate.auditFile, s.core.audit.f = s.core.audit.f, gate
	s.core.mu.Unlock()
	var once sync.Once
	open := func() { once.Do(func() { close(gate.open) }) }
	t.Cleanup(open) // lets the server close after a failure
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sendFrames(t, c, &Request{Client: c.ID(), Seq: 1, Op: ReqPut, Key: []byte("held"), Value: val1})
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the held Put never reached its audit write")
	}
	return func(queued int) {
		t.Helper()
		defer open()
		for deadline := time.Now().Add(5 * time.Second); handedOff(s) < 1+queued; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d requests reached the committer", handedOff(s)-1, queued)
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
		// DecodeRequest refuses the value on the reader, so the
		// committer never sees it and nothing is waited for.
		s := startServer(t, nil)
		c := dial(t, s)
		sendFrames(t, c, put(c, 1, make([]byte, MaxValue+1)), get(c, 2))
		wantAbsent(t, awaitReply(t, c, 2))
	})

	t.Run("ignored as a queued retransmit", func(t *testing.T) {
		// The committer is held in a flush until both copies of the Put
		// wait in the queue, so the second finds the first buffered.
		s := startServer(t, nil)
		c := dial(t, s)
		release := holdCommitter(t, s)
		sendFrames(t, c, put(c, 1, val), put(c, 1, val), get(c, 2))
		release(2)
		if resp := awaitReply(t, c, 1); resp.Status != StatusOK {
			t.Fatalf("put: %+v", resp)
		}
		wantValue(t, awaitReply(t, c, 2), val)
		if n := coreSlots(s); n != 2 {
			t.Fatalf("%d slots committed for the held Put and one Put sent twice", n)
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

// failingAudit is an audit file whose writes fail once left reaches
// zero, or with failSync, whose syncs do (the write before it lands).
type failingAudit struct {
	auditFile
	left     int
	failSync bool
}

func (f *failingAudit) fails() bool {
	if f.left == 0 {
		return true
	}
	f.left--
	return false
}

func (f *failingAudit) Write(p []byte) (int, error) {
	if !f.failSync && f.fails() {
		return 0, errAuditFull
	}
	return f.auditFile.Write(p)
}

func (f *failingAudit) Sync() error {
	if f.failSync && f.fails() {
		return errAuditFull
	}
	return f.auditFile.Sync()
}

// TestAuditFailureStopsCore: a flush is audited whole or not at all.
// When the audit file fails on a flush, none of it is applied: the kv
// store holds exactly the audited entries — Restore, which replays the
// retained log, agrees with StateHash — and the audit file holds no
// record of the failed flush, even one that was written but not synced.
// The Core then stops: every later Commit and Get returns the storage
// error, so no value the audit chain lacks is ever served.
func TestAuditFailureStopsCore(t *testing.T) {
	keys := []string{"k1", "k2", "k3", "k4"}
	checkStopped := func(t *testing.T, c *Core, audited int) {
		t.Helper()
		for _, k := range keys {
			if _, ok := c.store.Get(encKey([]byte(k))); ok {
				t.Fatalf("%s of the failed flush was applied", k)
			}
		}
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
			t.Fatalf("audit file: %d entries, %v; want %d", len(entries), err, audited)
		}
	}
	commitAcross := func(t *testing.T, failing *failingAudit) *Core {
		t.Helper()
		c := testCore(t, nil)
		if _, err := c.Commit([]Op{{Op: OpPut, Key: []byte("k0"), Value: val1}}); err != nil {
			t.Fatal(err)
		}
		failing.auditFile, c.audit.f = c.audit.f, failing
		var ops []Op
		for i, k := range keys {
			ops = append(ops, Op{Op: OpPut, Key: []byte(k), Value: []byte(histValue(0, i))})
		}
		if _, err := c.Commit(ops); !errors.Is(err, errAuditFull) {
			t.Fatalf("Commit across the failure: %v, want the storage error", err)
		}
		return c
	}

	t.Run("core", func(t *testing.T) {
		checkStopped(t, commitAcross(t, &failingAudit{}), 1)
	})

	t.Run("sync fails after the write", func(t *testing.T) {
		checkStopped(t, commitAcross(t, &failingAudit{failSync: true}), 1)
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
		s.core.mu.Lock()
		s.core.audit.f = &failingAudit{auditFile: s.core.audit.f}
		s.core.mu.Unlock()
		var burst []*Request
		for i, k := range keys {
			burst = append(burst, &Request{Client: c.ID(), Seq: 2 + i, Op: ReqPut, Key: []byte(k), Value: []byte(histValue(0, i))})
		}
		burst = append(burst, &Request{Client: c.ID(), Seq: 6, Op: ReqGet, Key: []byte("k3")})
		sendFrames(t, c, burst...)
		for seq := 2; seq <= 6; seq++ {
			if resp := awaitReply(t, c, seq); resp.Status == StatusOK {
				t.Fatalf("seq %d, written or read across the failure: %+v", seq, resp)
			}
		}
		for _, k := range append(keys, "k0") {
			if v, err := c.Get([]byte(k)); err == nil {
				t.Fatalf("Get %s after the failure served %q", k, v)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// The burst's own flush was the first write to fail: only k0 is
		// audited, however the burst was cut into flushes.
		checkStopped(t, s.core, 1)
	})
}
