package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

// This file is the harness behind the data-plane and chaos tests: a
// sender whose Node.send is driven directly against loopback TCP sinks
// (SendBench), and a full in-process loopback cluster reporting every
// node's decision and metrics (RunCluster).

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
	params, err := types.NewParams(n)
	if err != nil {
		return nil, err
	}
	ring, err := sig.NewHMACRing(n, []byte("net-bench"))
	if err != nil {
		return nil, err
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("net-bench-dealer"))
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

// ClusterResult is one loopback cluster run.
type ClusterResult struct {
	// Decisions[i] is process i's decided value.
	Decisions []types.Value
	// Reports[i] is the snapshot of process i's recorder. Messages and
	// words (totals and per layer) are network-independent: they must
	// equal what the simulator charges the same machines.
	Reports []metrics.Report
	// Drops is the backpressure total across nodes (0 on healthy runs).
	Drops int64
	// ChaosDrops / ChaosDelays total the chaos layer's injections across
	// nodes (0 with chaos off).
	ChaosDrops  int64
	ChaosDelays int64
}

// ClusterOpts configures one in-process loopback cluster run.
type ClusterOpts struct {
	N    int
	Tick time.Duration
	// Protocol selects the machines: "bb" (default, a broadcast from
	// process 0) or "wba" (weak BA on a unanimous input) — wba is the
	// chaos workhorse because its help round and fallback certificate
	// recover receivers that chaos starved of frames.
	Protocol string
	// Chaos, when enabled, injects the same seeded fault schedule into
	// every node (each node draws verdicts from Chaos.Seed + its ID).
	Chaos ChaosConfig
}

// RunCluster runs an in-process loopback cluster per opts: n real TCP
// nodes on localhost, each driving one protocol machine, with optional
// chaos injection on every node's send path. It returns the decisions,
// every node's metrics, and the fault-injection totals.
func RunCluster(opts ClusterOpts) (*ClusterResult, error) {
	params, crypto, err := clusterSetup(opts.N)
	if err != nil {
		return nil, err
	}
	addrs, err := reserveLoopbackAddrs(opts.N)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	decisions := make([]types.Value, opts.N)
	recs := make([]*metrics.Recorder, opts.N)
	for i := 0; i < opts.N; i++ {
		id := types.ProcessID(i)
		recs[i] = metrics.NewRecorder()
		machine, err := clusterMachine(opts.Protocol, params, crypto, id)
		if err != nil {
			return nil, err
		}
		chaosCfg := opts.Chaos
		if chaosCfg.Enabled() {
			// Distinct per-node verdict streams from one cluster seed.
			chaosCfg.Seed = opts.Chaos.Seed + int64(i)*0x9e3779b9
		}
		node, err := NewNode(Config{
			Params:       params,
			Crypto:       crypto,
			ID:           id,
			Addrs:        addrs,
			Registry:     protocols.Registry(),
			TickInterval: opts.Tick,
			Recorder:     recs[i],
			Chaos:        chaosCfg,
		}, machine)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := node.Run(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("node %v: %w", id, err)
				return
			}
			decisions[id] = v
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res := &ClusterResult{Decisions: decisions, Reports: make([]metrics.Report, opts.N)}
	for i, r := range recs {
		rep := r.Snapshot()
		res.Reports[i] = rep
		res.Drops += rep.NetDrops
		res.ChaosDrops += rep.ChaosDrops
		res.ChaosDelays += rep.ChaosDelays
	}
	return res, nil
}

// clusterSetup builds the trusted setup every RunCluster node shares.
func clusterSetup(n int) (types.Params, *proto.Crypto, error) {
	params, err := types.NewParams(n)
	if err != nil {
		return types.Params{}, nil, err
	}
	ring, err := sig.NewHMACRing(n, []byte("net-cluster"))
	if err != nil {
		return types.Params{}, nil, err
	}
	return params, proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("net-cluster-dealer")), nil
}

// clusterMachine looks up process id's machine for a RunCluster protocol
// in the protocol table.
func clusterMachine(protocol string, params types.Params, crypto *proto.Crypto, id types.ProcessID) (proto.Machine, error) {
	cfg := protocols.Config{Params: params, Crypto: crypto, Tag: "netbench"}
	switch protocol {
	case "", "bb":
		return protocols.BB.New(cfg, id, types.Value("net-bench-broadcast"))
	case "wba":
		return protocols.WBA.New(cfg, id, types.Value("net-bench-agree"))
	default:
		return nil, fmt.Errorf("transport: unknown cluster protocol %q", protocol)
	}
}

// reserveLoopbackAddrs picks n free localhost ports.
func reserveLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}
