// Command adaptiveba-node runs one process of a protocol over real TCP.
// All nodes of a cluster must share the same -n, -addrs, -protocol,
// -sender and -seed (the seed stands in for the trusted PKI setup: nodes
// derive the same key material from it, as a deployment would from a key
// ceremony).
//
// A 5-node strong BA on one machine:
//
//	for i in 0 1 2 3 4; do
//	  adaptiveba-node -id $i -n 5 -protocol strongba -input 1 \
//	    -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 &
//	done; wait
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"adaptiveba/internal/metrics"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/transport"
	"adaptiveba/internal/types"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adaptiveba-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adaptiveba-node", flag.ContinueOnError)
	var (
		id       = fs.Int("id", 0, "this process's id (0..n-1)")
		n        = fs.Int("n", 5, "number of processes")
		addrsCSV = fs.String("addrs", "", "comma-separated host:port list, one per process")
		protocol = fs.String("protocol", "strongba", "protocol: bb | wba | strongba")
		input    = fs.String("input", "1", "input value (strongba: 0 or 1)")
		sender   = fs.Int("sender", 0, "designated sender (bb only)")
		seed     = fs.String("seed", "cluster-seed", "shared trusted-setup seed")
		tick     = fs.Duration("tick", 25*time.Millisecond, "tick interval (δ)")
		verbose  = fs.Bool("v", false, "verbose transport logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	crypto, err := transport.Setup(*n, *seed)
	if err != nil {
		return err
	}
	params := crypto.Params
	addrs := strings.Split(*addrsCSV, ",")
	if *addrsCSV == "" || len(addrs) != *n {
		return fmt.Errorf("need -addrs with exactly %d entries", *n)
	}

	machine, err := transport.NewProtocolMachine("node", *protocol, params, crypto, types.ProcessID(*id), types.ProcessID(*sender), types.Value(*input))
	if err != nil {
		return err
	}

	rec := metrics.NewRecorder()
	cfg := transport.Config{
		Params:       params,
		Crypto:       crypto,
		ID:           types.ProcessID(*id),
		Addrs:        addrs,
		Registry:     protocols.Registry(),
		TickInterval: *tick,
		Recorder:     rec,
	}
	if *verbose {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	node, err := transport.NewNode(cfg, machine)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	decision, err := node.Run(ctx)
	if err != nil {
		return err
	}
	rep := rec.Snapshot()
	fmt.Printf("node %d decided: %s  (sent %d msgs, %d words, %d bytes)\n",
		*id, decision, rep.Honest.Messages, rep.Honest.Words, rep.Honest.Bytes)
	return nil
}
