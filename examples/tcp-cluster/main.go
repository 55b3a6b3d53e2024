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
	"time"

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
	// Trusted setup: in a deployment this is a key ceremony; here every
	// node derives the same keys from a shared seed.
	crypto, err := transport.Setup(n, "tcp-cluster-demo")
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := transport.RunCluster(ctx, transport.ClusterOpts{
		Node: transport.Config{Params: crypto.Params, Crypto: crypto, TickInterval: 15 * time.Millisecond},
		Machine: func(id types.ProcessID) (proto.Machine, error) {
			return protocols.BB.New(protocols.Config{Params: crypto.Params, Crypto: crypto, Tag: "demo"}, id, types.Value("ship it"))
		},
	})
	if err != nil {
		return err
	}
	fmt.Println("5-node adaptive Byzantine Broadcast over localhost TCP:")
	for i, rep := range res.Reports {
		fmt.Printf("  node %d @ %-21s decided %q  (%d msgs, %d words, %d bytes sent)\n",
			i, res.Addrs[i], res.Decisions[i], rep.Honest.Messages, rep.Honest.Words, rep.Honest.Bytes)
	}
	return nil
}
