package transport

import (
	"io"
	"net"
	"sync"
	"time"

	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

// This file holds SendBench, a sender whose Node.send is driven directly
// against loopback TCP sinks: the harness behind the data-plane tests
// (TestSendBytesParity, TestSendAllocCeiling). The in-process loopback
// cluster is RunCluster, in cluster.go.

// idleMachine satisfies proto.Machine for harnesses that drive the data
// plane directly and never tick a real protocol.
type idleMachine struct{}

func (idleMachine) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing { return outs }
func (idleMachine) Tick(_ types.Tick, _ []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	return outs
}
func (idleMachine) Output() (types.Value, bool) { return nil, false }
func (idleMachine) Done() bool                  { return false }

// SendBench wires one Node's send path to n real loopback TCP
// connections drained by discard sinks, so the data plane — encode-once
// framing, outbox enqueue, coalesced writer flushes — can be measured in
// isolation from protocol logic and tick pacing.
type SendBench struct {
	node      *Node
	rec       *metrics.Recorder
	outs      []proto.Outgoing
	listeners []net.Listener
	sinkWG    sync.WaitGroup
}

// NewSendBench builds a sender for an n-process mesh broadcasting one
// signed BB sender-message per Broadcast call.
func NewSendBench(n int) (*SendBench, error) {
	crypto, err := Setup(n, "net-bench")
	if err != nil {
		return nil, err
	}
	params := crypto.Params
	value := types.Value("net-bench-value-0123456789abcdef")
	sg, err := crypto.Signer(0).Sign(value)
	if err != nil {
		return nil, err
	}

	rec := metrics.NewRecorder()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0" // never dialed: connections are wired below
	}
	node, err := NewNode(Config{
		Params:   params,
		Crypto:   crypto,
		ID:       0,
		Addrs:    addrs,
		Registry: protocols.Registry(),
		Recorder: rec,
		// A large bound so the harness measures throughput, not the
		// drop policy: every queued message must be delivered.
		FlushBytes: 64 << 20,
	}, idleMachine{})
	if err != nil {
		return nil, err
	}

	sb := &SendBench{
		node: node,
		rec:  rec,
		outs: proto.AppendBroadcast(nil, params, "bench/bb", bb.SenderMsg{V: value, Sig: sg}),
	}
	node.outbound = make([]net.Conn, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sb.Close()
			return nil, err
		}
		sb.listeners = append(sb.listeners, ln)
		sb.sinkWG.Add(1)
		go func() {
			defer sb.sinkWG.Done()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			io.Copy(io.Discard, conn)
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			sb.Close()
			return nil, err
		}
		node.outbound[i] = conn
	}
	node.startOutboxes()
	return sb, nil
}

// Broadcast pushes one n-recipient broadcast through Node.send.
func (sb *SendBench) Broadcast() { sb.node.send(sb.outs) }

// MessagesPerBroadcast is the number of metered sends per Broadcast
// (self-delivery is not counted).
func (sb *SendBench) MessagesPerBroadcast() int { return sb.node.cfg.Params.N - 1 }

// Drain blocks until every outbox has flushed its queued bytes to the
// kernel.
func (sb *SendBench) Drain() {
	for _, ob := range sb.node.outboxes {
		if ob == nil {
			continue
		}
		for ob.buffered() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// Snapshot returns the sender's metrics so far.
func (sb *SendBench) Snapshot() metrics.Report { return sb.rec.Snapshot() }

// Close tears the sinks and writers down.
func (sb *SendBench) Close() {
	sb.node.stopOutboxes()
	for _, c := range sb.node.outbound {
		if c != nil {
			c.Close()
		}
	}
	for _, ln := range sb.listeners {
		ln.Close()
	}
	sb.sinkWG.Wait()
}
