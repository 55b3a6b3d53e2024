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
	"net"
	"os"
	"sort"
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
	params, err := types.NewParams(*n)
	if err != nil {
		return err
	}
	if *crash < 0 || *crash > params.T {
		return fmt.Errorf("crash count %d exceeds t=%d", *crash, params.T)
	}

	ring, err := sig.NewHMACRing(*n, []byte("cluster"))
	if err != nil {
		return err
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("cluster-dealer"))

	// A crashed node must still own a port (peers dial it and time out on
	// sends), so reserve addresses for everyone but only start n-crash.
	addrs, err := reserveAddrs(*n)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	type lineOut struct {
		id   types.ProcessID
		line string
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		lines []lineOut
		fail  error
	)
	chaos := transport.ChaosConfig{
		Seed:           *chaosSeed,
		DropRate:       *chaosDrop,
		DelayRate:      *chaosDelay,
		MaxDelay:       *chaosMaxDelay,
		PartitionEvery: types.Tick(*chaosPartition),
		FlapEvery:      types.Tick(*chaosFlap),
	}

	alive := *n - *crash
	for i := 0; i < alive; i++ {
		id := types.ProcessID(i)
		machine, err := transport.NewProtocolMachine("cluster", *protocol, params, crypto, id, 0, types.Value(*value))
		if err != nil {
			return err
		}
		nodeChaos := chaos
		if nodeChaos.Enabled() {
			// Distinct per-node verdict streams from the one cluster seed.
			nodeChaos.Seed = chaos.Seed + int64(i)*0x9e3779b9
		}
		rec := metrics.NewRecorder()
		node, err := transport.NewNode(transport.Config{
			Params:       params,
			Crypto:       crypto,
			ID:           id,
			Addrs:        addrs,
			Registry:     protocols.Registry(),
			TickInterval: *tick,
			DialTimeout:  *dial,
			Recorder:     rec,
			FlushBytes:   *flushEvery,
			Chaos:        nodeChaos,
			// The crashed peers never answer the barrier; nodes proceed
			// when the live ones are ready.
			Quorum: alive,
		}, machine)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			decision, err := node.Run(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if fail == nil {
					fail = fmt.Errorf("node %v: %w", id, err)
				}
				return
			}
			rep := rec.Snapshot()
			line := fmt.Sprintf(
				"node %v @ %-21s decided %-12q  %4d msgs %5d words %7d bytes",
				id, addrs[id], decision, rep.Honest.Messages, rep.Honest.Words, rep.Honest.Bytes)
			if nodeChaos.Enabled() {
				line += fmt.Sprintf("  chaos: %d dropped %d delayed", rep.ChaosDrops, rep.ChaosDelays)
			}
			lines = append(lines, lineOut{id: id, line: line})
		}()
	}
	wg.Wait()
	if fail != nil {
		return fail
	}
	sort.Slice(lines, func(a, b int) bool { return lines[a].id < lines[b].id })
	header := fmt.Sprintf("%s over TCP: n=%d, crashed=%d", *protocol, *n, *crash)
	if chaos.Enabled() {
		header += fmt.Sprintf(", chaos seed=%d drop=%.2f delay=%.2f", chaos.Seed, chaos.DropRate, chaos.DelayRate)
	}
	fmt.Fprintln(out, header)
	for _, l := range lines {
		fmt.Fprintln(out, " ", l.line)
	}
	return nil
}

// reserveAddrs picks n free localhost ports.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs, nil
}
