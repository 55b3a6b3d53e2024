// Package transport runs proto.Machines as real networked nodes over TCP.
// It is the second runtime next to the simulator: the same deterministic
// state machines, driven by a wall-clock tick loop instead of simulated
// ticks.
//
// The synchrony assumption maps onto configuration: one tick lasts
// TickInterval, and the deployment must guarantee that a message sent
// during tick k is delivered before tick k+1 is processed (i.e.
// TickInterval comfortably exceeds the network's worst-case delay δ plus
// processing time). On localhost the default of 25ms is generous.
//
// Topology is a full mesh: every node dials every peer and uses the
// outbound connection for sending; inbound connections only receive. An
// authenticated hello frame binds each inbound connection to a process
// identity (demo-grade: it proves key possession but is not replay-proof
// across runs; production deployments would use mutually authenticated
// TLS).
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// Frame kinds on the stream.
const (
	frameHello byte = 1
	frameReady byte = 2
	frameMsg   byte = 3
)

// extraTicks is how many ticks a node keeps running after its machine is
// done, so that slower peers can still be served.
const extraTicks = 10

// writeDeadline bounds each coalesced flush write, so a dead link fails
// fast.
const writeDeadline = 10 * time.Second

// Errors returned by the node.
var (
	ErrConfig  = errors.New("transport: invalid configuration")
	ErrNoPeers = errors.New("transport: could not connect to all peers")
	// ErrClosed reports that Close ended the run.
	ErrClosed = errors.New("transport: node closed")
	// ErrBackpressure reports a frame dropped because a peer's outbox was
	// full — the slow-peer policy drops rather than head-of-line blocks.
	ErrBackpressure = errors.New("transport: peer outbox full, frame dropped")
)

// Config describes one node.
type Config struct {
	Params types.Params
	Crypto *proto.Crypto
	ID     types.ProcessID
	// Addrs[i] is process i's listen address (host:port).
	Addrs []string
	// Registry decodes payloads; protocols.Registry() covers all protocols.
	Registry *wire.Registry
	// TickInterval is the duration of one tick (δ). Default 25ms.
	TickInterval time.Duration
	// DialTimeout bounds the whole connection setup. Default 10s.
	DialTimeout time.Duration
	// Quorum is the number of peers (including self) that must be
	// connected and ready before the run starts; the rest are treated as
	// crashed. Default: all N (no tolerated absences at startup).
	Quorum int
	// Recorder, if set, accounts for sent messages.
	Recorder *metrics.Recorder
	// Logf, if set, receives debug lines.
	Logf func(format string, args ...any)
	// FlushBytes bounds the bytes buffered per peer between coalesced
	// flushes. An enqueue that would exceed it drops the frame
	// (ErrBackpressure, surfaced through metrics) instead of blocking
	// the tick loop behind a slow peer. Default 4 MiB.
	FlushBytes int
}

// Node runs one machine over TCP. Close may be called from any
// goroutine, at any point of the lifecycle, any number of times.
type Node struct {
	cfg     Config
	machine proto.Machine

	mu      sync.Mutex
	inbox   []proto.Incoming
	readyCh chan types.ProcessID

	listener net.Listener
	outbound []net.Conn
	inbound  map[net.Conn]struct{}

	// outboxes[i] is the coalescing writer for outbound[i] (nil for
	// crashed peers). Built once after the start barrier and only read
	// by the tick goroutine thereafter.
	outboxes []*peerOutbox
	scratch  sendScratch

	closeOnce sync.Once
	closed    chan struct{}
}

// sendScratch is the tick goroutine's reusable encode-once state: the
// writers hold the grown buffers, and (key, session) memoize the last
// encoded payload so a broadcast is framed exactly once.
type sendScratch struct {
	payloadW *wire.Writer // registry (type, body) frame of the payload
	frameW   *wire.Writer // message body: session + framed payload
	key      proto.PayloadKey
	session  string
	valid    bool
	failed   bool // the memoized payload failed to encode
	words    int
}

// NewNode validates the configuration and builds a node.
func NewNode(cfg Config, machine proto.Machine) (*Node, error) {
	if !cfg.Params.Valid() || len(cfg.Addrs) != cfg.Params.N {
		return nil, fmt.Errorf("%w: need one address per process", ErrConfig)
	}
	if err := cfg.Params.CheckProcess(cfg.ID); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if cfg.Registry == nil || cfg.Crypto == nil || machine == nil {
		return nil, fmt.Errorf("%w: registry, crypto and machine are required", ErrConfig)
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 25 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.Quorum <= 0 || cfg.Quorum > cfg.Params.N {
		cfg.Quorum = cfg.Params.N
	}
	if cfg.FlushBytes <= 0 {
		cfg.FlushBytes = 4 << 20
	}
	return &Node{
		cfg:     cfg,
		machine: machine,
		readyCh: make(chan types.ProcessID, cfg.Params.N*2),
		inbound: make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
		scratch: sendScratch{payloadW: wire.NewWriter(), frameW: wire.NewWriter()},
	}, nil
}

// Close shuts the node down: it stops accepting, closes every inbound
// and outbound connection (unblocking their reader goroutines), and
// makes an in-flight Run return ErrClosed. It is idempotent and safe to
// call concurrently with Run and with itself.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.mu.Lock()
		ln := n.listener
		conns := make([]net.Conn, 0, len(n.outbound)+len(n.inbound))
		for _, c := range n.outbound {
			if c != nil {
				conns = append(conns, c)
			}
		}
		for c := range n.inbound {
			conns = append(conns, c)
		}
		n.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		for _, c := range conns {
			c.Close()
		}
	})
	return nil
}

// helloBase is the byte string the hello frame signs.
func helloBase(id types.ProcessID) []byte {
	w := wire.NewWriter()
	w.PutString("transport/hello")
	w.PutProcess(id)
	return w.Bytes()
}

// Run connects to the mesh, synchronizes the start, drives the tick loop,
// and returns the machine's decision.
func (n *Node) Run(ctx context.Context) (types.Value, error) {
	ln, err := net.Listen("tcp", n.cfg.Addrs[n.cfg.ID])
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	n.mu.Lock()
	n.listener = ln
	n.mu.Unlock()
	// Close publishes n.closed before collecting connections under mu, so
	// either it sees the listener we just stored, or we see closed here.
	select {
	case <-n.closed:
		ln.Close()
		return nil, ErrClosed
	default:
	}
	defer ln.Close()
	defer n.closeOutbound()

	acceptCtx, stopAccept := context.WithCancel(ctx)
	defer stopAccept()
	go n.acceptLoop(acceptCtx, ln)

	if err := n.connectAll(ctx); err != nil {
		return nil, err
	}
	if err := n.barrier(ctx); err != nil {
		return nil, err
	}
	// The hello and ready frames went out synchronously above, so the
	// writers own their connections from the first tick onward.
	n.startOutboxes()
	defer n.stopOutboxes()
	return n.tickLoop(ctx)
}

// startOutboxes spawns one coalescing writer per live outbound
// connection (including the loopback to self).
func (n *Node) startOutboxes() {
	n.outboxes = make([]*peerOutbox, n.cfg.Params.N)
	for i, conn := range n.outbound {
		if conn == nil {
			continue
		}
		n.outboxes[i] = newPeerOutbox(conn, n.cfg.FlushBytes, writeDeadline)
	}
}

// stopOutboxes drains and joins every writer goroutine. It runs before
// the deferred closeOutbound, so on a clean finish the final flush still
// has a live connection; after Close the writers fail fast instead.
func (n *Node) stopOutboxes() {
	for _, ob := range n.outboxes {
		if ob != nil {
			ob.shutdown()
		}
	}
}

// acceptLoop receives inbound connections and spawns readers.
func (n *Node) acceptLoop(ctx context.Context, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go n.readLoop(ctx, conn)
	}
}

// readLoop authenticates one inbound connection and ingests its frames.
func (n *Node) readLoop(ctx context.Context, conn net.Conn) {
	n.mu.Lock()
	n.inbound[conn] = struct{}{}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
		conn.Close()
	}()
	// Same ordering argument as in Run: either Close sees this conn in
	// n.inbound, or we see closed and shut down ourselves.
	select {
	case <-n.closed:
		return
	default:
	}
	from := types.NilProcess
	var fr FrameReader // reusable frame buffer: one allocation per conn, not per frame
	for {
		if ctx.Err() != nil {
			return
		}
		kind, body, err := fr.Read(conn)
		if err != nil {
			return
		}
		switch kind {
		case frameHello:
			r := wire.NewReader(body)
			id := r.Process()
			s := r.Sig()
			if r.Close() != nil || n.cfg.Params.CheckProcess(id) != nil {
				return
			}
			if !n.cfg.Crypto.Scheme.Verify(id, helloBase(id), s) {
				n.logf("rejecting hello claiming %v", id)
				return
			}
			from = id
		case frameReady:
			if from == types.NilProcess {
				return
			}
			select {
			case n.readyCh <- from:
			default:
			}
		case frameMsg:
			if from == types.NilProcess {
				return // unauthenticated senders are dropped
			}
			r := wire.NewReader(body)
			session := r.String()
			payloadFrame := r.Bytes()
			if r.Close() != nil {
				return
			}
			payload, err := n.cfg.Registry.DecodePayload(payloadFrame)
			if err != nil {
				n.logf("bad payload from %v: %v", from, err)
				continue
			}
			n.mu.Lock()
			n.inbox = append(n.inbox, proto.Incoming{From: from, Session: session, Payload: payload})
			n.mu.Unlock()
		default:
			return
		}
	}
}

// connectAll dials every peer (including a loopback to itself for
// uniform self-delivery) in parallel and sends the hello frame. Peers
// that stay unreachable until the deadline are treated as crashed; at
// least Quorum connections (including self) are required.
func (n *Node) connectAll(ctx context.Context) error {
	deadline := time.Now().Add(n.cfg.DialTimeout)
	s, err := n.cfg.Crypto.Signer(n.cfg.ID).Sign(helloBase(n.cfg.ID))
	if err != nil {
		return fmt.Errorf("transport: sign hello: %w", err)
	}
	hello := wire.NewWriter()
	hello.PutProcess(n.cfg.ID)
	hello.PutSig(s)

	var wg sync.WaitGroup
	conns := make([]net.Conn, n.cfg.Params.N)
	for i := 0; i < n.cfg.Params.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				select {
				case <-n.closed:
					return
				default:
				}
				conn, err := net.DialTimeout("tcp", n.cfg.Addrs[i], time.Second)
				if err == nil {
					conns[i] = conn
					return
				}
				if time.Now().After(deadline) {
					return // treated as crashed
				}
				time.Sleep(50 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	connected := 0
	outbound := make([]net.Conn, n.cfg.Params.N)
	for i, conn := range conns {
		if conn == nil {
			continue
		}
		if err := WriteFrame(conn, frameHello, hello.Bytes()); err != nil {
			conn.Close()
			continue
		}
		outbound[i] = conn
		connected++
	}
	n.mu.Lock()
	n.outbound = outbound
	n.mu.Unlock()
	select {
	case <-n.closed:
		n.closeOutbound()
		return ErrClosed
	default:
	}
	if connected < n.cfg.Quorum {
		return fmt.Errorf("%w: connected to %d/%d, need %d", ErrNoPeers, connected, n.cfg.Params.N, n.cfg.Quorum)
	}
	return nil
}

// barrier announces readiness and waits for Quorum peers (including
// itself) to do the same, so that all live nodes start tick 0 within a
// fraction of the tick interval.
func (n *Node) barrier(ctx context.Context) error {
	for i := range n.outbound {
		if n.outbound[i] == nil {
			continue
		}
		if err := WriteFrame(n.outbound[i], frameReady, nil); err != nil {
			return fmt.Errorf("transport: ready to %d: %w", i, err)
		}
	}
	seen := make(map[types.ProcessID]bool)
	timeout := time.After(n.cfg.DialTimeout)
	for len(seen) < n.cfg.Quorum {
		select {
		case id := <-n.readyCh:
			seen[id] = true
		case <-timeout:
			return fmt.Errorf("%w: %d/%d ready", ErrNoPeers, len(seen), n.cfg.Quorum)
		case <-n.closed:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// tickLoop drives the machine until it is done (plus extraTicks) or the
// context ends.
func (n *Node) tickLoop(ctx context.Context) (types.Value, error) {
	ticker := time.NewTicker(n.cfg.TickInterval)
	defer ticker.Stop()

	var now types.Tick
	extra := 0
	// The one send buffer of the node's session tree: the machine appends
	// to it, send drains it, the next tick starts it empty again.
	outs := n.machine.Begin(0, nil)
	n.send(outs)
	for {
		select {
		case <-ctx.Done():
			v, _ := n.machine.Output()
			return v, ctx.Err()
		case <-n.closed:
			v, _ := n.machine.Output()
			return v, ErrClosed
		case <-ticker.C:
		}
		now++
		n.mu.Lock()
		inbox := n.inbox
		n.inbox = nil
		n.mu.Unlock()
		outs = n.machine.Tick(now, inbox, outs[:0])
		n.send(outs)
		if n.machine.Done() {
			extra++
			if extra >= extraTicks {
				v, _ := n.machine.Output()
				return v, nil
			}
		}
	}
}

// send is the encode-once data plane: each distinct (session, payload)
// is framed exactly once into the node's scratch writers and the
// resulting bytes are enqueued on every recipient's outbox. A broadcast —
// n copies of one boxed payload, as proto.AppendBroadcast emits — costs one
// encoding (wire.AppendPayload) and n buffer appends; the steady-state
// path performs zero allocations (guarded by TestSendAllocCeiling).
func (n *Node) send(outs []proto.Outgoing) {
	s := &n.scratch
	s.valid = false // keys are only meaningful within one outs slice
	for i := range outs {
		o := &outs[i]
		if n.cfg.Params.CheckProcess(o.To) != nil || o.Payload == nil {
			continue
		}
		ob := n.outboxes[o.To]
		if ob == nil {
			continue // crashed peer: skipped before any encoding work
		}
		if k := proto.KeyOf(o.Payload); !s.valid || k != s.key || o.Session != s.session {
			s.key, s.session, s.valid = k, o.Session, true
			s.failed = false
			s.payloadW.Reset()
			if err := wire.AppendPayload(s.payloadW, o.Payload); err != nil {
				n.logf("encode %s: %v", o.Payload.Type(), err)
				s.failed = true
			} else {
				s.frameW.Reset()
				s.frameW.PutString(o.Session)
				s.frameW.PutBytes(s.payloadW.Bytes())
				s.words = o.Payload.Words()
			}
		}
		if s.failed {
			continue
		}
		body := s.frameW.Bytes()
		if err := ob.enqueue(frameMsg, body); err != nil {
			n.logf("send to %v: %v", o.To, err)
			if n.cfg.Recorder != nil {
				n.cfg.Recorder.RecordNetDrop()
			}
			continue
		}
		if n.cfg.Recorder != nil && o.To != n.cfg.ID {
			n.cfg.Recorder.RecordSend(metrics.SendEvent{
				Words:  s.words,
				Bytes:  len(body) + FrameHeader,
				Layer:  o.Session,
				Honest: true,
			})
		}
	}
}

func (n *Node) closeOutbound() {
	n.mu.Lock()
	conns := append([]net.Conn(nil), n.outbound...)
	n.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("node %v: "+format, append([]any{n.cfg.ID}, args...)...)
	}
}
