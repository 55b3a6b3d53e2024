package transport

import (
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// peerOutbox is the bounded, coalescing send queue feeding one peer's
// outbound connection. The tick loop appends frames to a pending buffer
// under a mutex (a cheap memcpy) and a dedicated writer goroutine drains
// everything accumulated since its last write in a single conn.Write —
// the group-commit pattern: while one flush is on the wire, the frames
// of the next tick coalesce behind it, so a broadcast costs the sender
// one syscall per peer per flush instead of one per message, and a slow
// peer can never head-of-line block the node's round.
//
// Backpressure policy: an enqueue that would push the pending buffer past
// limit drops the frame and reports ErrBackpressure. Synchrony already
// bounds how much a correct peer can lag (one tick), so a persistently
// full outbox means the peer is effectively crashed; dropping is the
// behavior the protocols are designed to survive, blocking is not.
type peerOutbox struct {
	conn     net.Conn
	limit    int           // max buffered bytes; beyond it frames drop
	deadline time.Duration // per-flush write deadline

	mu      sync.Mutex
	pending []byte // frames queued since the last flush swap (reused)
	spare   []byte // writer-side buffer, exchanged with pending per flush
	dead    bool   // the connection failed; enqueues drop from now on
	err     error  // first write error, sticky

	wake     chan struct{} // cap-1 doorbell
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// newPeerOutbox starts the writer goroutine for conn.
func newPeerOutbox(conn net.Conn, limit int, deadline time.Duration) *peerOutbox {
	ob := &peerOutbox{
		conn:     conn,
		limit:    limit,
		deadline: deadline,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go ob.writeLoop()
	return ob
}

// enqueue appends one [len u32][kind][body] frame to the pending buffer
// and rings the writer's doorbell. The body bytes are copied, so callers
// may reuse their encoding buffers immediately. It returns the sticky
// connection error for a dead peer and ErrBackpressure for a full outbox;
// in both cases the frame is dropped, never blocked on.
func (ob *peerOutbox) enqueue(kind byte, body []byte) error {
	frameLen := 5 + len(body)
	ob.mu.Lock()
	if ob.dead {
		err := ob.err
		ob.mu.Unlock()
		return err
	}
	if ob.limit > 0 && len(ob.pending)+frameLen > ob.limit {
		ob.mu.Unlock()
		return ErrBackpressure
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = kind
	ob.pending = append(ob.pending, hdr[:]...)
	ob.pending = append(ob.pending, body...)
	ob.mu.Unlock()
	select {
	case ob.wake <- struct{}{}:
	default:
	}
	return nil
}

// buffered reports the bytes currently queued (tests and the bench
// harness use it to wait for drain).
func (ob *peerOutbox) buffered() int {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	return len(ob.pending)
}

// writeLoop drains the outbox until shutdown, flushing once per doorbell
// ring (which covers every frame enqueued since the previous flush).
func (ob *peerOutbox) writeLoop() {
	defer close(ob.done)
	for {
		select {
		case <-ob.wake:
			ob.flush()
		case <-ob.stop:
			ob.flush() // best-effort final drain
			return
		}
	}
}

// flush swaps the pending buffer against the writer's spare and writes it
// in one call. Both buffers are retained and reused, so the steady-state
// data plane allocates nothing.
func (ob *peerOutbox) flush() {
	ob.mu.Lock()
	buf := ob.pending
	ob.pending = ob.spare[:0]
	ob.spare = buf
	dead := ob.dead
	ob.mu.Unlock()
	if dead || len(buf) == 0 {
		return
	}
	if ob.deadline > 0 {
		ob.conn.SetWriteDeadline(time.Now().Add(ob.deadline))
	}
	if _, err := ob.conn.Write(buf); err != nil {
		ob.mu.Lock()
		ob.dead = true
		if ob.err == nil {
			ob.err = err
		}
		ob.mu.Unlock()
		ob.conn.Close()
	}
}

// shutdown stops the writer after a final drain and waits for it to exit.
// Safe to call multiple times and concurrently with a dying connection.
func (ob *peerOutbox) shutdown() {
	ob.stopOnce.Do(func() { close(ob.stop) })
	<-ob.done
}
