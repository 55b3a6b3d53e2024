// Command adaptiveba-cluster spawns a full n-node cluster over localhost
// TCP in one process — the quickest way to watch the protocols run on a
// real network stack. Crashed nodes are simply never started (fail-stop
// from the beginning, the common case the adaptive protocols optimize).
//
//	adaptiveba-cluster -protocol bb -n 5 -value "ship it"
//	adaptiveba-cluster -protocol strongba -n 9 -crash 2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/transport"
	"adaptiveba/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adaptiveba-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adaptiveba-cluster", flag.ContinueOnError)
	var (
		protocol = fs.String("protocol", "bb", "protocol: bb | wba | strongba")
		n        = fs.Int("n", 5, "number of processes")
		crash    = fs.Int("crash", 0, "number of crashed (never-started) processes, taken from the highest ids")
		value    = fs.String("value", "1", "broadcast / unanimous input value (strongba: 0 or 1)")
		tick     = fs.Duration("tick", 15*time.Millisecond, "tick interval (δ)")
		dial     = fs.Duration("dial", 3*time.Second, "per-peer connection deadline (crashed peers are written off after it)")
		timeout  = fs.Duration("timeout", 60*time.Second, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	crypto, err := transport.Setup(*n, "cluster")
	if err != nil {
		return err
	}
	params := crypto.Params
	if *crash < 0 || *crash > params.T {
		return fmt.Errorf("crash count %d exceeds t=%d", *crash, params.T)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := transport.RunCluster(ctx, transport.ClusterOpts{
		Node: transport.Config{
			Params:       params,
			Crypto:       crypto,
			TickInterval: *tick,
			DialTimeout:  *dial,
		},
		Live: *n - *crash,
		Machine: func(id types.ProcessID) (proto.Machine, error) {
			return transport.NewProtocolMachine("cluster", *protocol, params, crypto, id, 0, types.Value(*value))
		},
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s over TCP: n=%d, crashed=%d\n", *protocol, *n, *crash)
	for i, rep := range res.Reports {
		fmt.Fprintf(out, "  node %v @ %-21s decided %-12q  %4d msgs %5d words %7d bytes\n",
			types.ProcessID(i), res.Addrs[i], res.Decisions[i], rep.Honest.Messages, rep.Honest.Words, rep.Honest.Bytes)
	}
	return nil
}
