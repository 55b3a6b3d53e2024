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
		protocol   = fs.String("protocol", "bb", "protocol: bb | wba | strongba")
		n          = fs.Int("n", 5, "number of processes")
		crash      = fs.Int("crash", 0, "number of crashed (never-started) processes, taken from the highest ids")
		value      = fs.String("value", "1", "broadcast / unanimous input value (strongba: 0 or 1)")
		tick       = fs.Duration("tick", 15*time.Millisecond, "tick interval (δ)")
		dial       = fs.Duration("dial", 3*time.Second, "per-peer connection deadline (crashed peers are written off after it)")
		timeout    = fs.Duration("timeout", 60*time.Second, "overall deadline")
		flushEvery = fs.Int("flush-every", 0, "per-peer outbox bound in bytes before backpressure drops (0 = default 4MiB)")

		chaosSeed      = fs.Int64("chaos-seed", 1, "seed for the chaos fault schedule (per-node streams are derived from it)")
		chaosDrop      = fs.Float64("chaos-drop", 0, "per-frame chaos loss probability (0..1); enables chaos injection")
		chaosDelay     = fs.Float64("chaos-delay", 0, "per-frame chaos jitter probability (0..1); enables chaos injection")
		chaosMaxDelay  = fs.Duration("chaos-max-delay", 0, "chaos jitter bound (0 = tick/4); past the tick interval it violates the δ-bound")
		chaosPartition = fs.Int("chaos-partition-every", 0, "open a 1-tick parity-cut partition every N ticks (0 = off)")
		chaosFlap      = fs.Int("chaos-flap-every", 0, "flap one seeded-chosen peer for 1 tick every N ticks (0 = off)")
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
	chaos := transport.ChaosConfig{
		Seed:           *chaosSeed,
		DropRate:       *chaosDrop,
		DelayRate:      *chaosDelay,
		MaxDelay:       *chaosMaxDelay,
		PartitionEvery: types.Tick(*chaosPartition),
		FlapEvery:      types.Tick(*chaosFlap),
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := transport.RunCluster(ctx, transport.ClusterOpts{
		Node: transport.Config{
			Params:       params,
			Crypto:       crypto,
			TickInterval: *tick,
			DialTimeout:  *dial,
			FlushBytes:   *flushEvery,
			Chaos:        chaos,
		},
		Live: *n - *crash,
		Machine: func(id types.ProcessID) (proto.Machine, error) {
			return transport.NewProtocolMachine("cluster", *protocol, params, crypto, id, 0, types.Value(*value))
		},
	})
	if err != nil {
		return err
	}

	header := fmt.Sprintf("%s over TCP: n=%d, crashed=%d", *protocol, *n, *crash)
	if chaos.Enabled() {
		header += fmt.Sprintf(", chaos seed=%d drop=%.2f delay=%.2f", chaos.Seed, chaos.DropRate, chaos.DelayRate)
	}
	fmt.Fprintln(out, header)
	for i, rep := range res.Reports {
		line := fmt.Sprintf(
			"node %v @ %-21s decided %-12q  %4d msgs %5d words %7d bytes",
			types.ProcessID(i), res.Addrs[i], res.Decisions[i], rep.Honest.Messages, rep.Honest.Words, rep.Honest.Bytes)
		if chaos.Enabled() {
			line += fmt.Sprintf("  chaos: %d dropped %d delayed", rep.ChaosDrops, rep.ChaosDelays)
		}
		fmt.Fprintln(out, " ", line)
	}
	return nil
}
