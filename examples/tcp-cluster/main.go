// TCP-cluster: the same state machines, over a real network. Spawns five
// nodes on localhost TCP ports, runs the adaptive Byzantine Broadcast
// between them, and prints each node's decision and wire costs.
//
//	go run ./examples/tcp-cluster
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/metrics"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/transport"
	"adaptiveba/internal/types"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 5
	params, err := types.NewParams(n)
	if err != nil {
		return err
	}
	// Trusted setup: in a deployment this is a key ceremony; here every
	// node derives the same ring from a shared seed.
	ring, err := sig.NewHMACRing(n, []byte("tcp-cluster-demo"))
	if err != nil {
		return err
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("dealer"))

	// Reserve n localhost ports.
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	results := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		id := types.ProcessID(i)
		rec := metrics.NewRecorder()
		machine, err := protocols.BB.New(protocols.Config{Params: params, Crypto: crypto, Tag: "demo"}, id, types.Value("ship it"))
		if err != nil {
			return err
		}
		node, err := transport.NewNode(transport.Config{
			Params:       params,
			Crypto:       crypto,
			ID:           id,
			Addrs:        addrs,
			Registry:     protocols.Registry(),
			TickInterval: 15 * time.Millisecond,
			Recorder:     rec,
		}, machine)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			decision, err := node.Run(ctx)
			if err != nil {
				errs[id] = err
				return
			}
			rep := rec.Snapshot()
			results[id] = fmt.Sprintf("node %d @ %-21s decided %q  (%d msgs, %d words, %d bytes sent)",
				id, addrs[id], decision, rep.Honest.Messages, rep.Honest.Words, rep.Honest.Bytes)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	fmt.Println("5-node adaptive Byzantine Broadcast over localhost TCP:")
	for _, line := range results {
		fmt.Println(" ", line)
	}
	return nil
}
