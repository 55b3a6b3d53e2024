package transport

import (
	"context"
	"fmt"
	"net"
	"sync"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/types"
)

// This file is what the node and cluster commands share: the trusted
// setup (Setup), the protocol machines they host (NewProtocolMachine),
// and the one in-process loopback launcher (RunCluster).

// Setup is the trusted setup of an n-process TCP cluster: the PKI ring
// derived from seed and the compact-mode threshold dealer derived from
// seed+"-dealer". Every process of a cluster must use the same seed; it
// stands in for a key ceremony.
func Setup(n int, seed string) (*proto.Crypto, error) {
	params, err := types.NewParams(n)
	if err != nil {
		return nil, err
	}
	ring, err := sig.NewHMACRing(n, []byte(seed))
	if err != nil {
		return nil, err
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte(seed+"-dealer")), nil
}

// NewProtocolMachine looks up process id's machine for one of the paper's
// protocols by CLI name ("bb", "wba", "strongba") in the protocol table —
// the machines the node and cluster commands host. Signatures are
// domain-separated under the kind's tag below tagPrefix; sender is the BB
// designated sender; strong BA takes its binary input as "0" or "1".
func NewProtocolMachine(tagPrefix, protocol string, params types.Params, crypto *proto.Crypto, id, sender types.ProcessID, input types.Value) (proto.Machine, error) {
	kind := protocols.Kind(protocol)
	switch kind {
	case protocols.BB, protocols.WBA:
	case protocols.StrongBA:
		switch string(input) {
		case "0":
			input = types.Zero
		case "1":
			input = types.One
		default:
			return nil, fmt.Errorf("strongba input must be 0 or 1, got %q", input)
		}
	default:
		return nil, fmt.Errorf("%w %q", protocols.ErrUnknown, protocol)
	}
	return kind.New(protocols.Config{Params: params, Crypto: crypto, Tag: kind.Tag(tagPrefix), Sender: sender}, id, input)
}

// ClusterOpts configures one in-process loopback cluster run.
type ClusterOpts struct {
	// Node is the template of every node's Config: Params, Crypto,
	// TickInterval, DialTimeout, FlushBytes, Chaos and the rest are copied
	// as given. RunCluster sets ID, Addrs, Registry, Recorder and Quorum
	// per node and, with chaos enabled, a distinct per-node seed
	// Chaos.Seed + id·0x9e3779b9.
	Node Config
	// Live is the number of processes that run: processes Live..n-1 own a
	// port that peers dial, but never start (crashed from the beginning).
	// 0 means all n.
	Live int
	// Machine builds process id's machine.
	Machine func(id types.ProcessID) (proto.Machine, error)
}

// ClusterResult is one loopback cluster run.
type ClusterResult struct {
	// Addrs[i] is process i's listen address, for all n processes.
	Addrs []string
	// Decisions[i] is process i's decided value, for each live process.
	Decisions []types.Value
	// Reports[i] is the snapshot of live process i's recorder. Messages and
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

// RunCluster runs an in-process loopback cluster per opts: the live
// processes as real TCP nodes on localhost, each driving the machine
// opts.Machine builds for it. Every machine and node is built before any
// node starts, so a factory or configuration error returns with nothing
// running. RunCluster returns once every node has returned: the
// decisions and every node's metrics, or the lowest-id node's error.
func RunCluster(ctx context.Context, opts ClusterOpts) (*ClusterResult, error) {
	n := opts.Node.Params.N
	live := opts.Live
	if live == 0 {
		live = n
	}
	if live < 1 || live > n {
		return nil, fmt.Errorf("%w: %d live processes of n=%d", ErrConfig, live, n)
	}
	machines := make([]proto.Machine, live)
	for i := range machines {
		m, err := opts.Machine(types.ProcessID(i))
		if err != nil {
			return nil, fmt.Errorf("node %v: %w", types.ProcessID(i), err)
		}
		machines[i] = m
	}
	// A crashed process still owns a port: peers dial it until their
	// DialTimeout and then write it off.
	addrs, err := reserveLoopbackAddrs(n)
	if err != nil {
		return nil, err
	}
	nodes := make([]*Node, live)
	recs := make([]*metrics.Recorder, live)
	for i := range nodes {
		cfg := opts.Node
		cfg.ID = types.ProcessID(i)
		cfg.Addrs = addrs
		cfg.Registry = protocols.Registry()
		recs[i] = metrics.NewRecorder()
		cfg.Recorder = recs[i]
		// The crashed processes never answer the start barrier.
		cfg.Quorum = live
		if cfg.Chaos.Enabled() {
			// Distinct per-node verdict streams from one cluster seed.
			cfg.Chaos.Seed += int64(i) * 0x9e3779b9
		}
		if nodes[i], err = NewNode(cfg, machines[i]); err != nil {
			return nil, fmt.Errorf("node %v: %w", cfg.ID, err)
		}
	}

	res := &ClusterResult{Addrs: addrs, Decisions: make([]types.Value, live), Reports: make([]metrics.Report, live)}
	errs := make([]error, live)
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Decisions[i], errs[i] = node.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %v: %w", types.ProcessID(i), err)
		}
	}
	for i, r := range recs {
		rep := r.Snapshot()
		res.Reports[i] = rep
		res.Drops += rep.NetDrops
		res.ChaosDrops += rep.ChaosDrops
		res.ChaosDelays += rep.ChaosDelays
	}
	return res, nil
}

// reserveLoopbackAddrs picks n free localhost ports and releases them for
// the nodes to bind.
func reserveLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}
