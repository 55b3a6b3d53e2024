package service

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveba/internal/transport"
	"adaptiveba/internal/types"
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Core configures the replicated state (see Config).
	Core Config
	// Addr is the TCP listen address (use "127.0.0.1:0" for tests).
	Addr string
	// DedupWindow is how many responses per client are retained for
	// replay (default 64; a retried (client, seq) inside the window gets
	// its original response back, one behind the window gets
	// ErrDuplicate).
	DedupWindow int
	// MaxBatch bounds how many writes one flush commits together
	// (default 4× the core's per-round capacity).
	MaxBatch int
	// Chaos, when enabled, injects the transport chaos schedule into the
	// inbound request path: dropped requests get no response (the client
	// retries into the dedup window), delayed responses are deferred.
	Chaos transport.ChaosConfig
	// Logf, if set, receives server diagnostics.
	Logf func(format string, args ...any)
}

// serverReq is one decoded request paired with its connection's outbox.
// A bye tombstone (bye != 0, req == nil) tells the run loop the session
// ended so its dedup state can be dropped.
type serverReq struct {
	req  *Request
	conn *serverConn
	bye  int
}

// serverConn is the per-connection send side.
type serverConn struct {
	conn net.Conn
	out  chan []byte // encoded response frames
	quit chan struct{}
}

// send enqueues one encoded response without ever blocking the run loop.
// A full outbox means the client is not draining its replies: dropping
// this one would leave a hole in the stream (later replies still arrive,
// and a pipelining client stalls on the missing seq), so the connection
// is closed instead — the client sees a clean prefix of replies, then a
// disconnect. Closing the socket ends the reader in serveConn, which
// closes quit and frees the session.
func (c *serverConn) send(body []byte) {
	select {
	case c.out <- body:
	case <-c.quit:
	default:
		c.conn.Close()
	}
}

// clientWindow retains the last DedupWindow responses of one client.
type clientWindow struct {
	resp    map[int][]byte
	order   []int // insertion order, oldest first
	evicted int   // highest seq evicted so far (-1 when none)
}

func newClientWindow() *clientWindow {
	return &clientWindow{resp: make(map[int][]byte), evicted: -1}
}

func (w *clientWindow) get(seq int) ([]byte, bool) {
	b, ok := w.resp[seq]
	return b, ok
}

func (w *clientWindow) tooOld(seq int) bool { return seq <= w.evicted }

func (w *clientWindow) put(seq int, body []byte, limit int) {
	if seq <= w.evicted {
		// A retransmit of a seq already behind the window must not
		// re-enter it: that would evict a fresher response a pending
		// retry may still need.
		return
	}
	if _, ok := w.resp[seq]; ok {
		return
	}
	w.resp[seq] = body
	w.order = append(w.order, seq)
	for len(w.order) > limit {
		old := w.order[0]
		w.order = w.order[1:]
		delete(w.resp, old)
		if old > w.evicted {
			w.evicted = old
		}
	}
}

// Server runs the replicated KV service on one TCP listener: client
// sessions with request dedup, writes batched across clients into ACS
// commits, reads from replicated state, snapshots for unbounded uptime.
// All core access is serialized through the run loop.
type Server struct {
	cfg  ServerConfig
	core *Core
	ln   net.Listener

	reqCh chan serverReq
	// inspectCh carries read-only closures the run loop executes against
	// the core, serializing external reads with all mutation.
	inspectCh chan func(*Core)
	done      chan struct{}
	// runDone closes when the run loop exits; after that, direct core
	// reads are race-free.
	runDone chan struct{}
	wg      sync.WaitGroup
	// connMu guards conns and closed: every live client connection is
	// tracked so Close can unblock their reader goroutines.
	connMu     sync.Mutex
	conns      map[net.Conn]struct{}
	closed     bool
	closeOnce  sync.Once
	closeErr   error
	nextClient atomic.Int64
	windows    map[int]*clientWindow
	// inflight marks buffered-but-uncommitted (client, seq) writes, so a
	// fast retransmit (chaos delay, eager client) cannot double-queue an
	// op before its first copy flushes and its response lands in the
	// dedup window.
	inflight  map[int]map[int]bool
	chaos     *transport.ChaosVerdicts
	chaosTick types.Tick

	pending     []Op
	pendingReqs []serverReq
}

// NewServer builds the core, binds the listener, and starts serving.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.DedupWindow == 0 {
		cfg.DedupWindow = 64
	}
	if cfg.DedupWindow < 1 {
		return nil, fmt.Errorf("%w: dedup window %d", ErrConfig, cfg.DedupWindow)
	}
	core, err := NewCore(cfg.Core)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 4 * len(core.honest) * core.cfg.Batch
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		core.Close()
		return nil, fmt.Errorf("service: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:       cfg,
		core:      core,
		ln:        ln,
		reqCh:     make(chan serverReq, 256),
		inspectCh: make(chan func(*Core)),
		done:      make(chan struct{}),
		runDone:   make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		windows:   make(map[int]*clientWindow),
		inflight:  make(map[int]map[int]bool),
	}
	if cfg.Chaos.Enabled() {
		// The verdict population is the service's replica count; client
		// IDs fold onto it so every knob (partition parity, flap victims)
		// exercises the same schedule as the mesh.
		s.chaos = transport.NewChaosVerdicts(cfg.Chaos, 0, core.cfg.N, time.Millisecond)
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.runLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Core exposes the replicated core for in-process inspection. The run
// loop owns the core while the server is running, so direct access is
// only race-free after Close returns; use Inspect or Stats on a live
// server.
func (s *Server) Core() *Core { return s.core }

// Inspect runs fn against the core with all mutation excluded: on a
// live server it executes on the run loop, after shutdown it runs
// directly (the run loop has exited, so the access is ordered). fn must
// only read.
func (s *Server) Inspect(fn func(*Core)) {
	ran := make(chan struct{})
	select {
	case s.inspectCh <- func(c *Core) { fn(c); close(ran) }:
		select {
		case <-ran:
		case <-s.runDone:
			// The run loop exited without executing fn (runDone closes
			// only after the loop returns, so it cannot be mid-fn).
			select {
			case <-ran:
			default:
				fn(s.core)
			}
		}
	case <-s.runDone:
		fn(s.core)
	}
}

// Stats returns the core's cost counters, serialized with the run loop.
func (s *Server) Stats() Stats {
	var st Stats
	s.Inspect(func(c *Core) { st = c.Stats() })
	return st
}

// track registers a live client connection so Close can unblock its
// reader; false means the server is already shutting down.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Close stops the listener, closes every live client connection (so
// reader goroutines blocked on their sockets return), waits for all
// goroutines, and closes the core. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.ln.Close()
		s.connMu.Lock()
		s.closed = true
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
		s.closeErr = s.core.Close()
	})
	return s.closeErr
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("service: "+format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				s.logf("accept: %v", err)
				return
			}
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one client connection: hello handshake, then a
// read loop feeding the run loop and a write goroutine draining the
// connection's outbox.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if !s.track(conn) {
		return // lost the race with Close
	}
	defer s.untrack(conn)

	// Frames are read through one buffer: a frame is a 4-byte prefix and a
	// body, two reads each if taken from the socket, and a pipelining
	// client's whole burst usually arrives in one segment.
	var fr transport.FrameReader
	br := bufio.NewReader(conn)
	kind, _, err := fr.Read(br)
	if err != nil || kind != FrameHello {
		return
	}
	id := int(s.nextClient.Add(1))
	w := newWelcome(id)
	if err := transport.WriteFrame(conn, FrameWelcome, w); err != nil {
		return
	}

	sc := &serverConn{conn: conn, out: make(chan []byte, 64), quit: make(chan struct{})}
	// On exit: close quit first (LIFO), then tell the run loop the
	// session ended so its dedup window and inflight marks are freed —
	// with quit already closed, any request of this session still in
	// flight (chaos-delayed requeues included) is dropped rather than
	// resurrecting the state.
	defer func() {
		select {
		case s.reqCh <- serverReq{bye: id}:
		case <-s.done:
		}
	}()
	defer close(sc.quit)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Replies queued behind one another leave in one write: the
		// buffer is flushed whenever the outbox is found empty, so a
		// lone reply is not delayed and a burst's replies share a
		// segment.
		bw := bufio.NewWriter(conn)
		for {
			select {
			case body := <-sc.out:
				if err := transport.WriteFrame(bw, FrameResponse, body); err != nil {
					return
				}
				if len(sc.out) == 0 {
					if err := bw.Flush(); err != nil {
						return
					}
				}
			case <-sc.quit:
				return
			case <-s.done:
				return
			}
		}
	}()

	for {
		kind, body, err := fr.Read(br)
		if err != nil {
			return
		}
		if kind != FrameRequest {
			continue
		}
		req, err := DecodeRequest(body)
		if err != nil {
			s.logf("client %d: %v", id, err)
			continue
		}
		if req.Client != id {
			continue // requests must carry the session's assigned ID
		}
		select {
		case s.reqCh <- serverReq{req: req, conn: sc}:
		case <-s.done:
			return
		}
	}
}

// runLoop serializes all core access: it drains whatever requests are
// queued, buffers writes, and flushes them as one ACS commit.
func (s *Server) runLoop() {
	defer s.wg.Done()
	defer close(s.runDone)
	for {
		select {
		case r := <-s.reqCh:
			s.handle(r)
		case fn := <-s.inspectCh:
			fn(s.core)
		case <-s.done:
			return
		}
	drain:
		for len(s.pending) < s.cfg.MaxBatch {
			select {
			case r := <-s.reqCh:
				s.handle(r)
			default:
				break drain
			}
		}
		s.flush()
	}
}

// handle routes one request: chaos verdict, dedup, then buffer (writes)
// or serve (reads, verification).
func (s *Server) handle(r serverReq) {
	if r.bye != 0 {
		// Session ended: free its dedup window and inflight marks. A
		// reconnect gets a fresh ID, so nothing can still need them.
		delete(s.windows, r.bye)
		delete(s.inflight, r.bye)
		return
	}
	select {
	case <-r.conn.quit:
		return // session already gone; don't resurrect its dedup state
	default:
	}
	if s.chaos != nil {
		s.chaosTick++
		s.chaos.Tick(s.chaosTick)
		drop, delay := s.chaos.Verdict(types.ProcessID(r.req.Client % s.core.cfg.N))
		if drop {
			return // no response; the client's retry re-enters the dedup window
		}
		if delay > 0 {
			// Defer the whole request, preserving dedup semantics when the
			// retry arrives first.
			req := r
			time.AfterFunc(delay, func() {
				select {
				case s.reqCh <- req:
				case <-s.done:
				}
			})
			return
		}
	}

	w := s.windows[r.req.Client]
	if w == nil {
		w = newClientWindow()
		s.windows[r.req.Client] = w
	}
	if body, ok := w.get(r.req.Seq); ok {
		r.conn.send(body) // replayed response, not re-executed
		return
	}
	if w.tooOld(r.req.Seq) {
		s.reply(r, &Response{
			Seq: r.req.Seq, Status: StatusError, Code: CodeDuplicate,
			Detail: ErrDuplicate.Error(),
		})
		return
	}

	switch r.req.Op {
	case ReqPut:
		if len(r.req.Value) > MaxValue {
			s.reply(r, errResponse(r.req.Seq, CodeBadRequest, "value exceeds MaxValue"))
			return
		}
		if !s.markInflight(r.req.Client, r.req.Seq) {
			return // already queued; its flush response will cover the retry
		}
		s.pending = append(s.pending, Op{Op: OpPut, Key: r.req.Key, Value: r.req.Value})
		s.pendingReqs = append(s.pendingReqs, r)
	case ReqDel:
		if !s.markInflight(r.req.Client, r.req.Seq) {
			return
		}
		s.pending = append(s.pending, Op{Op: OpDel, Key: r.req.Key})
		s.pendingReqs = append(s.pendingReqs, r)
	case ReqGet:
		s.flush() // reads observe every write queued before them
		body, err := s.core.getResponse(r.req.Seq, r.req.Key)
		if err != nil {
			s.reply(r, errResponseFor(r.req.Seq, err))
			return
		}
		s.send(r, body)
	case ReqVerify:
		s.flush()
		rep, err := s.core.Verify()
		resp := &Response{Seq: r.req.Seq, Status: StatusOK, Report: rep}
		if err != nil {
			resp.Status = StatusError
			resp.Code = CodeTampered
			resp.Detail = err.Error()
		}
		s.reply(r, resp)
	}
}

// flush commits the buffered writes as one batch and answers them.
func (s *Server) flush() {
	if len(s.pending) == 0 {
		return
	}
	ops, reqs := s.pending, s.pendingReqs
	s.pending, s.pendingReqs = nil, nil
	_, err := s.core.Commit(ops)
	for _, r := range reqs {
		s.clearInflight(r.req.Client, r.req.Seq)
		if err != nil {
			s.reply(r, errResponseFor(r.req.Seq, err))
			continue
		}
		s.reply(r, &Response{Seq: r.req.Seq, Status: StatusOK})
	}
}

// markInflight records a buffered write; false means the seq is already
// queued.
func (s *Server) markInflight(client, seq int) bool {
	m := s.inflight[client]
	if m == nil {
		m = make(map[int]bool)
		s.inflight[client] = m
	}
	if m[seq] {
		return false
	}
	m[seq] = true
	return true
}

func (s *Server) clearInflight(client, seq int) {
	delete(s.inflight[client], seq)
}

// reply encodes, records for dedup replay, and sends one response.
func (s *Server) reply(r serverReq, resp *Response) { s.send(r, EncodeResponse(resp)) }

// send records one encoded response for dedup replay and sends it.
func (s *Server) send(r serverReq, body []byte) {
	if w := s.windows[r.req.Client]; w != nil {
		w.put(r.req.Seq, body, s.cfg.DedupWindow)
	}
	r.conn.send(body)
}

func errResponse(seq int, code byte, detail string) *Response {
	return &Response{Seq: seq, Status: StatusError, Code: code, Detail: detail}
}

// errResponseFor maps a core error to its wire code so the typed
// sentinel survives to the client.
func errResponseFor(seq int, err error) *Response {
	code := CodeNone
	switch {
	case errors.Is(err, ErrNotFound):
		code = CodeNotFound
	case errors.Is(err, ErrTampered):
		code = CodeTampered
	case errors.Is(err, ErrDuplicate):
		code = CodeDuplicate
	}
	return errResponse(seq, code, err.Error())
}
