package service

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"adaptiveba/internal/transport"
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Core configures the replicated state (see Config).
	Core Config
	// Addr is the TCP listen address (use "127.0.0.1:0" for tests).
	Addr string
	// DedupWindow is how many write responses per client are retained
	// for replay (default 64; a retried (client, seq) write inside the
	// window gets its original response back, one behind the window gets
	// ErrDuplicate). Reads are not retained: a retried Get or Verify runs
	// again, which a read may do.
	DedupWindow int
}

// serverReq is one decoded request paired with its connection.
type serverReq struct {
	req  *Request
	conn *serverConn
}

// outboxSize is how many replies the run loop may queue on one
// connection ahead of its socket before it gives up on the client.
const outboxSize = 64

// serverConn is one client connection's server side. Its replies leave
// through one buffered writer in the order they were made: the run loop
// queues the replies to writes and Verify in out, which the writer
// goroutine drains, and the reader goroutine answers a Get itself.
// Whoever writes holds wmu and first writes out everything queued, so a
// Get's reply never overtakes one queued before it.
type serverConn struct {
	conn net.Conn
	quit chan struct{}

	// outMu guards out, the replies queued and not yet taken. ready (one
	// slot) wakes the writer goroutine after out grows.
	outMu sync.Mutex
	out   [][]byte
	ready chan struct{}

	// wmu is held while bw is written. taken is out's spare slice,
	// swapped with it under wmu.
	wmu   sync.Mutex
	bw    *bufio.Writer
	taken [][]byte

	// inRun counts the requests the reader handed to the run loop and
	// the run loop has not yet disposed of; idle (one slot) is signalled
	// each time it falls to zero. A Get waits for zero, so it reads every
	// earlier write of its connection.
	inRun atomic.Int64
	idle  chan struct{}

	// hdr is the reader's scratch for a Get reply's header.
	hdr [getHeaderSize]byte

	// The connection's client's write dedup window, touched only by the
	// run loop: resp holds the response to each write in the window, or
	// nil while the write is buffered for the next flush; order lists the
	// answered seqs oldest first; evicted is the highest seq pushed out
	// of the window (-1 when none). A client ID names one connection, so
	// the window lives and dies with it.
	resp    map[int][]byte
	order   []int
	evicted int
}

// send queues one encoded response without ever blocking the run loop.
// A full outbox means the client is not draining its replies: dropping
// this one would leave a hole in the stream (later replies still arrive,
// and a pipelining client stalls on the missing seq), so the connection
// is closed instead — the client sees a clean prefix of replies, then a
// disconnect. Closing the socket ends the reader in serveConn, which
// closes quit and frees the session.
func (c *serverConn) send(body []byte) {
	c.outMu.Lock()
	full := len(c.out) >= outboxSize
	if !full {
		c.out = append(c.out, body)
	}
	c.outMu.Unlock()
	if full {
		c.conn.Close()
		return
	}
	select {
	case c.ready <- struct{}{}:
	default:
	}
}

// write writes every queued reply, then body unless it is nil, and
// flushes them as one write. Replies queued while it writes go in the
// same flush: the buffer leaves once the queue is found empty, so a lone
// reply is not delayed and a burst's replies share a segment.
func (c *serverConn) write(body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for {
		c.outMu.Lock()
		c.out, c.taken = c.taken[:0], c.out
		c.outMu.Unlock()
		if len(c.taken) == 0 {
			break
		}
		for i, b := range c.taken {
			c.taken[i] = nil
			if err := transport.WriteFrame(c.bw, FrameResponse, b); err != nil {
				return err
			}
		}
	}
	if body != nil {
		if err := transport.WriteFrame(c.bw, FrameResponse, body); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// leave records that the run loop has disposed of one request the
// reader handed it: replied to it, replayed or refused it, dropped it
// for a closed connection, or ignored it as a retransmit of a write
// already queued.
func (c *serverConn) leave() {
	if c.inRun.Add(-1) == 0 {
		select {
		case c.idle <- struct{}{}:
		default:
		}
	}
}

// settle blocks the reader until the run loop has disposed of every
// request it handed over; false if the server closes first. The reader
// is the only goroutine that raises inRun, so while it waits inRun only
// falls, and the idle signal sent when it reaches zero is never missed.
func (c *serverConn) settle(done <-chan struct{}) bool {
	for c.inRun.Load() > 0 {
		select {
		case <-c.idle:
		case <-done:
			return false
		}
	}
	return true
}

// keep records the response to write seq in the dedup window, evicting
// the oldest beyond limit. A seq already behind the window does not
// re-enter it, which would evict a fresher response a pending retry may
// still need; if it was buffered, its mark goes, so its retry is refused
// as a duplicate instead of ignored as a queued retransmit.
func (c *serverConn) keep(seq int, body []byte, limit int) {
	if seq <= c.evicted {
		delete(c.resp, seq)
		return
	}
	c.resp[seq] = body
	c.order = append(c.order, seq)
	for len(c.order) > limit {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.resp, old)
		c.evicted = max(c.evicted, old)
	}
}

// Server runs the replicated KV service on one TCP listener: client
// sessions with request dedup, writes batched across clients into ACS
// commits, reads from replicated state, snapshots for unbounded uptime.
// Writes and Verify go through the run loop, the Core's one writer. A
// Get never leaves its connection: the reader goroutine that decoded it
// waits for the connection's earlier writes, reads the Core (Core.Get's
// shared lock) and writes the reply. Stats reads under the same lock.
type Server struct {
	cfg  ServerConfig
	core *Core
	ln   net.Listener

	reqCh chan serverReq
	done  chan struct{}
	wg    sync.WaitGroup
	// connMu guards conns and closed: every live client connection is
	// tracked so Close can unblock their reader goroutines.
	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	closed    bool
	closeOnce sync.Once
	closeErr  error
	// nextClient numbers connections: each gets a fresh client ID.
	nextClient atomic.Int64
	// maxBatch bounds how many writes one flush commits together: 4× the
	// core's per-round capacity.
	maxBatch int

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
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		core.Close()
		return nil, fmt.Errorf("service: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:      cfg,
		core:     core,
		ln:       ln,
		reqCh:    make(chan serverReq, 256),
		done:     make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		maxBatch: 4 * len(core.honest) * core.cfg.Batch,
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.runLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns the core's cost counters (see Core.Stats).
func (s *Server) Stats() Stats { return s.core.Stats() }

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

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // Close, or a dead listener: either way no more clients
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one client connection: hello handshake, then a
// read loop that answers Gets itself and feeds every other request to
// the run loop, and a writer goroutine draining the replies the run loop
// queues.
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

	sc := &serverConn{
		conn: conn, quit: make(chan struct{}), bw: bufio.NewWriter(conn),
		ready: make(chan struct{}, 1), idle: make(chan struct{}, 1),
		resp: make(map[int][]byte), evicted: -1,
	}
	// Closing quit on exit makes the run loop drop any request of this
	// connection still in its queue.
	defer close(sc.quit)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-sc.ready:
				if err := sc.write(nil); err != nil {
					conn.Close() // ends the reader too
					return
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
			continue
		}
		if req.Client != id {
			continue // requests must carry the session's assigned ID
		}
		if req.Op == ReqGet {
			if !s.serveGet(sc, req) {
				return
			}
			continue
		}
		sc.inRun.Add(1)
		select {
		case s.reqCh <- serverReq{req: req, conn: sc}:
		case <-s.done:
			return
		}
	}
}

// serveGet answers a Get on its connection's reader goroutine, false
// when the connection or the server is going away. The reader first
// waits until the run loop has disposed of every request this connection
// sent before the Get, so the Get reads the connection's own earlier
// writes. Then it reads the Core and writes the reply behind whatever the
// run loop had queued. A Get is never in the dedup window: a retried one
// reads again.
func (s *Server) serveGet(c *serverConn, req *Request) bool {
	if !c.settle(s.done) {
		return false
	}
	body, err := s.core.getResponse(&c.hdr, req.Seq, req.Key)
	if err != nil {
		body = EncodeResponse(errResponseFor(req.Seq, err))
	}
	return c.write(body) == nil
}

// runLoop is the Core's one writer: it drains whatever requests are
// queued, buffers writes, and flushes them as one ACS commit. Gets and
// Stats do not pass through it.
func (s *Server) runLoop() {
	defer s.wg.Done()
	for {
		select {
		case r := <-s.reqCh:
			s.handle(r)
		case <-s.done:
			return
		}
	drain:
		for len(s.pending) < s.maxBatch {
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

// handle routes one write or Verify from a reader: dedup, then buffer (a
// write) or serve (Verify). A buffered write is disposed of by the flush
// that answers it; every other request is disposed of here.
func (s *Server) handle(r serverReq) {
	c, seq := r.conn, r.req.Seq
	select {
	case <-c.quit:
		c.leave() // connection gone: nobody is left to answer
		return
	default:
	}
	switch body, seen := c.resp[seq]; {
	case seen:
		if body != nil {
			c.send(body) // replayed response, not re-executed
		}
		// nil: already buffered, its flush response covers the retry
	case seq <= c.evicted:
		c.send(EncodeResponse(&Response{
			Seq: seq, Status: StatusError, Code: CodeDuplicate,
			Detail: ErrDuplicate.Error(),
		}))
	case r.req.Op == ReqPut || r.req.Op == ReqDel:
		// DecodeRequest has bounded a Put's value at MaxValue.
		op := Op{Op: OpPut, Key: r.req.Key, Value: r.req.Value}
		if r.req.Op == ReqDel {
			op = Op{Op: OpDel, Key: r.req.Key}
		}
		c.resp[seq] = nil // buffered until the flush answers it
		s.pending = append(s.pending, op)
		s.pendingReqs = append(s.pendingReqs, r)
		return
	case r.req.Op == ReqVerify:
		s.flush()
		rep, err := s.core.Verify()
		resp := &Response{Seq: seq, Status: StatusOK, Report: rep}
		if err != nil {
			resp.Status = StatusError
			resp.Code = CodeTampered
			resp.Detail = err.Error()
		}
		c.send(EncodeResponse(resp)) // a read: not kept for replay
	}
	c.leave()
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
		if err != nil {
			s.reply(r, errResponseFor(r.req.Seq, err))
		} else {
			s.reply(r, &Response{Seq: r.req.Seq, Status: StatusOK})
		}
		r.conn.leave()
	}
}

// reply encodes one response to a write, records it for dedup replay,
// and sends it.
func (s *Server) reply(r serverReq, resp *Response) {
	body := EncodeResponse(resp)
	r.conn.keep(r.req.Seq, body, s.cfg.DedupWindow)
	r.conn.send(body)
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
	return &Response{Seq: seq, Status: StatusError, Code: code, Detail: err.Error()}
}
