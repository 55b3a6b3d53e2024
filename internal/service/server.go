package service

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"

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

// serverBatch is what a connection's reader queues for the Core's writer
// at once: the writes and Verifys it decoded from one read, in order.
type serverBatch struct {
	reqs []*Request
	conn *serverConn
}

// readerSize is a connection's read buffer: large enough that a
// pipelined burst of 32 writes with two 4 KiB values (about 12 KiB)
// arrives in one fill and so is queued as one batch.
const readerSize = 16 << 10

// outboxSize is how many replies the Core's writer may queue on one
// connection ahead of its socket before it gives up on the client.
const outboxSize = 64

// serverConn is one client connection's server side. Its replies leave
// through one buffered writer in the order they were made: the Core's
// writer queues the replies to writes and Verify in out and pushes them
// to the socket itself, the writer goroutine takes what the socket would
// not, and the reader goroutine answers a Get itself. Whoever writes
// holds wmu and first writes out everything queued, so a Get's reply
// never overtakes one queued before it.
type serverConn struct {
	conn net.Conn
	// raw is conn's socket when conn is TCP (nil otherwise), for push's
	// write that never waits: attempt, bound once to nb, is its callback.
	raw     syscall.RawConn
	nb      nbWrite
	attempt func(fd uintptr) bool
	quit    chan struct{}

	// outMu guards out, the replies queued and not yet taken. ready (one
	// slot) wakes the writer goroutine; wakes counts the times wake was
	// called.
	outMu sync.Mutex
	out   [][]byte
	ready chan struct{}
	wakes atomic.Int64

	// wmu is held while bw is written. taken is out's spare slice,
	// swapped with it under wmu. Between writes bw holds only what push's
	// write left over, for the writer goroutine.
	wmu   sync.Mutex
	bw    *bufio.Writer
	taken [][]byte

	// inRun counts the requests the reader queued for the Core's writer
	// and the writer has not yet disposed of; it rises by a batch's length
	// at the hand-off. idle (one slot) is signalled each time it falls to
	// zero. A Get waits for zero, so it reads every earlier write of its
	// connection.
	inRun atomic.Int64
	idle  chan struct{}

	// reply is the reader's buffer for Get replies, grow-only up to
	// readerSize (see serveGet).
	reply []byte

	// The connection's client's write dedup window, touched only by the
	// Core's writer: resp holds the response to each write in the window,
	// or nil while the write is buffered for the next flush; order lists
	// the answered seqs oldest first; evicted is the highest seq pushed
	// out of the window (-1 when none). A client ID names one connection,
	// so the window lives and dies with it.
	resp    map[int][]byte
	order   []int
	evicted int
	// answered marks the connection as listed in Server.answered, also
	// the writer's alone.
	answered bool

	// br is the reader's read buffer. resume is set when the reader gave
	// up the Core's writer role with batches still queued, because its
	// own client had a request waiting: its next hand-off commits the
	// queue even if it hands over nothing. Both belong to the reader
	// goroutine, which looks at br from drain only while it holds the role
	// and so is not reading.
	br     *bufio.Reader
	resume bool
}

// wake hands the writer goroutine whatever is queued on c.
func (c *serverConn) wake() {
	c.wakes.Add(1)
	select {
	case c.ready <- struct{}{}:
	default:
	}
}

// push gives the socket c's queued replies without waiting for it: as
// many as fit bw's free buffer, framed in place, in one write attempt
// that never waits for the socket to become writable. What the socket
// does not take stays in bw, behind nothing, and the rest of the outbox
// stays queued; both go to the writer goroutine. So does everything when
// c is not TCP, when another goroutine is writing, or when an earlier
// remainder is still waiting.
func (c *serverConn) push() {
	if c.raw == nil || !c.wmu.TryLock() {
		c.wake()
		return
	}
	left := c.bw.Buffered() > 0
	if !left {
		// bw's empty buffer is the scratch: a remainder is copied down
		// within it, and bw.Write moves overlapping bytes correctly.
		buf := c.bw.AvailableBuffer()
		c.outMu.Lock()
		k := 0
		for _, b := range c.out {
			if len(buf)+transport.FrameHeader+len(b) > cap(buf) {
				break
			}
			buf = transport.AppendFrame(buf, FrameResponse, b)
			k++
		}
		c.out = slices.Delete(c.out, 0, k)
		left = len(c.out) > 0
		c.outMu.Unlock()
		if n, ok := c.writeNow(buf); !ok {
			left = false // the connection is closing; nobody reads the rest
		} else if n < len(buf) {
			// It fits, so it cannot fail unless an earlier write did,
			// and that write closed the connection.
			_, _ = c.bw.Write(buf[n:])
			left = true
		}
	}
	c.wmu.Unlock()
	if left {
		c.wake()
	}
}

// writeNow makes one write(2) of p on c's socket, which the runtime keeps
// non-blocking, and returns how much it took. A full socket takes less or
// nothing. Any other error closes the connection, and ok is false.
func (c *serverConn) writeNow(p []byte) (n int, ok bool) {
	if len(p) == 0 {
		return 0, true
	}
	c.nb = nbWrite{p: p}
	err := c.raw.Write(c.attempt)
	if err == nil {
		err = c.nb.err
	}
	n = max(c.nb.n, 0)
	if err != nil && err != syscall.EAGAIN && err != syscall.EINTR {
		c.conn.Close() // ends the reader too, as a failed write does
		return n, false
	}
	return n, true
}

// nbWrite is one write(2) attempt on a socket, as a RawConn.Write
// callback that never waits for the socket to drain.
type nbWrite struct {
	p   []byte
	n   int
	err error
}

func (w *nbWrite) do(fd uintptr) bool {
	w.n, w.err = syscall.Write(int(fd), w.p)
	return true
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

// leave records that the Core's writer has disposed of one request the
// reader queued: replied to it, replayed or refused it, dropped it for a
// closed connection, or ignored it as a retransmit of a write already
// buffered. The reply, if any, is queued on c first.
func (c *serverConn) leave() {
	if c.inRun.Add(-1) == 0 {
		select {
		case c.idle <- struct{}{}:
		default:
		}
	}
}

// settle blocks the reader until the Core's writer has disposed of every
// request it queued; false if the server closes first. The reader is the
// only goroutine that raises inRun, so while it waits inRun only falls,
// and the idle signal sent when it reaches zero is never missed.
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
// No request leaves its connection's reader goroutine. Writes and Verify
// are queued, and the reader that takes commitMu is the Core's one
// writer until the queue is empty or its own client has another request
// waiting (see drain): it commits the queued batches, its own and other
// connections', and writes their replies. A Get waits for the
// connection's earlier writes, reads the Core (Core.Get's shared lock)
// and writes the reply. Stats reads under the same lock.
type Server struct {
	cfg  ServerConfig
	core *Core
	ln   net.Listener

	// reqCh queues the readers' batches for the Core's writer. Up to 256
	// wait while a flush runs, so a reader goes on decoding instead of
	// waiting for the commit.
	reqCh chan serverBatch
	// commitMu is the Core's writer role, taken only with TryLock. pending,
	// pendingReqs and answered, and each connection's dedup window, are
	// its holder's.
	commitMu sync.Mutex
	done     chan struct{}
	wg       sync.WaitGroup
	// connMu guards conns and closed: every live client connection is
	// tracked so Close can unblock their reader goroutines.
	connMu    sync.Mutex
	conns     map[*serverConn]struct{}
	closed    bool
	closeOnce sync.Once
	closeErr  error
	// nextClient numbers connections: each gets a fresh client ID.
	nextClient atomic.Int64
	// maxBatch bounds how many requests a reader hands over at once and
	// how many writes one flush commits together: 4× the core's per-round
	// capacity.
	maxBatch int

	pending     []Op
	pendingReqs []serverReq
	// answered lists the connections replies were queued on since the
	// last push.
	answered []*serverConn
	// peek is the holder's scratch for looking at its own socket (see
	// waiting), made on first use.
	peek []byte
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
		reqCh:    make(chan serverBatch, 256),
		done:     make(chan struct{}),
		conns:    make(map[*serverConn]struct{}),
		maxBatch: 4 * len(core.honest) * core.cfg.Batch,
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns the core's cost counters (see Core.Stats).
func (s *Server) Stats() Stats { return s.core.Stats() }

// track registers a live client connection so Close can unblock its
// reader; false means the server is already shutting down.
func (s *Server) track(c *serverConn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c *serverConn) {
	s.connMu.Lock()
	delete(s.conns, c)
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
		for c := range s.conns {
			c.conn.Close()
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
// read loop that answers Gets itself and queues every other request for
// the Core's writer, taking that role when it is free, and a writer
// goroutine for the replies the socket would not take at once.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	sc := &serverConn{
		conn: conn, quit: make(chan struct{}), bw: bufio.NewWriter(conn),
		ready: make(chan struct{}, 1), idle: make(chan struct{}, 1),
		resp: make(map[int][]byte), evicted: -1,
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		if raw, err := tc.SyscallConn(); err == nil { // else the writer goroutine writes every reply
			sc.raw, sc.attempt = raw, sc.nb.do
		}
	}
	if !s.track(sc) {
		return // lost the race with Close
	}
	defer s.untrack(sc)

	// Frames are read through one buffer: a frame is a 4-byte prefix and a
	// body, two reads each if taken from the socket, and a pipelining
	// client's whole burst arrives in one fill.
	var fr transport.FrameReader
	br := bufio.NewReaderSize(conn, readerSize)
	sc.br = br
	kind, _, err := fr.Read(br)
	if err != nil || kind != FrameHello {
		return
	}
	id := int(s.nextClient.Add(1))
	w := newWelcome(id)
	if err := transport.WriteFrame(conn, FrameWelcome, w); err != nil {
		return
	}
	// Closing quit on exit makes the Core's writer drop any request of
	// this connection still in its queue.
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

	// What arrived together is handed over together: the reader keeps
	// decoding while another whole frame is buffered, and queues the
	// writes and Verifys it decoded as one batch. A batch ends at
	// maxBatch requests, at a Verify (which flushes), at a Get (which first
	// waits for the batch), and where the buffered bytes stop holding a
	// whole frame, so a partial frame still arriving never holds back
	// requests already decoded.
	var batch []*Request
	for {
		kind, body, err := fr.Read(br)
		if err != nil {
			s.handOff(sc, batch)
			return
		}
		var req *Request
		if kind == FrameRequest {
			if req, err = DecodeRequest(body); err != nil || req.Client != id {
				req = nil // undecodable, or not the session's assigned ID
			}
		}
		cut := !transport.FrameBuffered(br)
		switch {
		case req == nil:
		case req.Op == ReqGet:
			if !s.handOff(sc, batch) || !s.serveGet(sc, req) {
				return
			}
			batch = nil
		default:
			batch = append(batch, req)
			cut = cut || req.Op == ReqVerify || len(batch) == s.maxBatch
		}
		if cut {
			if !s.handOff(sc, batch) {
				return
			}
			batch = nil
		}
	}
}

// handOff queues one batch of c's requests and commits the queue if no
// other reader is committing; false if the server closes first. inRun
// rises by the batch's length before the batch can be disposed of. An
// empty batch commits only when c's reader owes the queue a resume.
func (s *Server) handOff(c *serverConn, reqs []*Request) bool {
	if len(reqs) == 0 && !c.resume {
		return true
	}
	if len(reqs) > 0 {
		c.inRun.Add(int64(len(reqs)))
		select {
		case s.reqCh <- serverBatch{reqs: reqs, conn: c}:
		case <-s.done:
			return false
		}
	}
	c.resume = false
	s.commit(c)
	return true
}

// serveGet answers a Get on its connection's reader goroutine, false
// when the connection or the server is going away. The reader first
// waits until the Core's writer has disposed of every request this
// connection sent before the Get, so the Get reads the connection's own
// earlier writes. Then it reads the Core and writes the reply behind
// whatever the writer had queued. A Get is never in the dedup window: a
// retried one reads again.
//
// The reply is built in c.reply, which the next Get reuses, so a warmed
// connection allocates no value-sized buffer per Get. A buffer grown past
// readerSize is dropped once its reply is written: an idle connection
// holds at most readerSize bytes of it.
func (s *Server) serveGet(c *serverConn, req *Request) bool {
	if !c.settle(s.done) {
		return false
	}
	body, err := s.core.getResponse(c.reply[:0], req.Seq, req.Key)
	if err != nil {
		body = EncodeResponse(errResponseFor(req.Seq, err))
	} else if cap(body) <= readerSize {
		c.reply = body
	} else {
		c.reply = nil
	}
	return c.write(body) == nil
}

// commit makes c's reader the Core's one writer while batches are queued
// and no other reader is: it takes commitMu with TryLock and drains the
// queue. A reader that loses the TryLock goes on decoding, as the holder
// drains its batch too. A holder checks the queue again after letting go
// of commitMu, so a batch queued by a reader that lost the TryLock just
// before is not stranded. A holder that gave up the role for its own
// client (see drain) still goes on while it finds the queue full: every
// reader's next hand-off might then wait on the queue before committing,
// its own reader's too, and nobody would drain it. Below full, the next
// hand-off queues its batch and commits. Gets and Stats do not pass
// through commit.
func (s *Server) commit(c *serverConn) {
	for len(s.reqCh) > 0 && s.commitMu.TryLock() {
		stop := s.drain(c)
		s.commitMu.Unlock()
		if stop && !(c.resume && len(s.reqCh) == cap(s.reqCh)) {
			return
		}
		c.resume = false
	}
}

// drain takes whatever batches are queued, buffers their writes, and
// flushes them as one ACS commit, until the queue is empty. It returns
// true, for the holder to stop committing, in two cases. Close has
// begun: batches queued behind Close never commit. Or the holder's own
// client has a request waiting after a flush while batches are still
// queued: a holder that kept draining would leave its own client
// waiting for as long as the others keep queueing, so it goes back to its
// reader, and that reader's next hand-off resumes the queue (unless
// commit finds the queue full and keeps the holder on).
func (s *Server) drain(holder *serverConn) (stop bool) {
	for {
		select {
		case <-s.done:
			return true
		default:
		}
		select {
		case b := <-s.reqCh:
			s.admit(b)
		default:
			return false
		}
	fill:
		for len(s.pending) < s.maxBatch {
			select {
			case b := <-s.reqCh:
				s.admit(b)
			default:
				break fill
			}
		}
		s.flush()
		if len(s.reqCh) > 0 && s.waiting(holder) {
			holder.resume = true
			return true
		}
	}
}

// waiting reports whether the holder's client has a whole frame waiting
// that its reader has not taken, in the read buffer or in the socket, so
// that the reader takes it without blocking. A frame that does not fit
// readerSize counts as not waiting, as does anything still in the socket
// of a connection that is not TCP.
func (s *Server) waiting(c *serverConn) bool {
	if transport.FrameBuffered(c.br) {
		return true
	}
	if c.raw == nil {
		return false
	}
	if s.peek == nil {
		s.peek = make([]byte, readerSize)
	}
	buffered, _ := c.br.Peek(c.br.Buffered())
	n := copy(s.peek, buffered)
	// Any error, EAGAIN on an empty socket included, peeks nothing (got
	// is then -1); the reader meets a real one when it reads.
	var got int
	if err := c.raw.Read(func(fd uintptr) bool {
		got, _, _ = syscall.Recvfrom(int(fd), s.peek[n:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	}); err != nil {
		return false
	}
	return transport.FrameWhole(s.peek[:n+max(got, 0)])
}

// admit handles one batch. A batch never straddles two flushes: one that
// would take the buffered writes past maxBatch first flushes them, and
// then waits whole for the next flush.
func (s *Server) admit(b serverBatch) {
	if len(s.pending)+len(b.reqs) > s.maxBatch {
		s.flush()
	}
	for _, req := range b.reqs {
		s.handle(serverReq{req: req, conn: b.conn})
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
			s.send(c, body) // replayed response, not re-executed
		}
		// nil: already buffered, its flush response covers the retry
	case seq <= c.evicted:
		s.send(c, EncodeResponse(&Response{
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
		s.send(c, EncodeResponse(resp)) // a read: not kept for replay
	}
	c.leave()
}

// flush commits the buffered writes as one batch and answers them, then
// pushes every reply queued since the last push: one write attempt per
// answered connection.
func (s *Server) flush() {
	if len(s.pending) > 0 {
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
	for _, c := range s.answered {
		c.push()
		c.answered = false
	}
	clear(s.answered)
	s.answered = s.answered[:0]
}

// reply encodes one response to a write, records it for dedup replay,
// and sends it.
func (s *Server) reply(r serverReq, resp *Response) {
	body := EncodeResponse(resp)
	r.conn.keep(r.req.Seq, body, s.cfg.DedupWindow)
	s.send(r.conn, body)
}

// send queues one encoded response on c for the next push, never
// blocking the Core's writer. A full outbox is first pushed: the socket
// may take it at once. One still full means the client is not draining
// its replies: dropping this one would leave a hole in the stream (later
// replies still arrive, and a pipelining client stalls on the missing
// seq), so the connection is closed instead — the client sees a clean
// prefix of replies, then a disconnect. Closing the socket ends the
// reader in serveConn, which closes quit and frees the session.
func (s *Server) send(c *serverConn, body []byte) {
	if !c.answered {
		c.answered = true
		s.answered = append(s.answered, c)
	}
	c.outMu.Lock()
	if len(c.out) >= outboxSize {
		c.outMu.Unlock()
		c.push()
		c.outMu.Lock()
	}
	full := len(c.out) >= outboxSize
	if !full {
		c.out = append(c.out, body)
	}
	c.outMu.Unlock()
	if full {
		c.conn.Close()
	}
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
