// Command adaptiveba-server runs the replicated KV service: client
// writes commit through batched ACS agreement rounds, large values are
// anchored through a content-addressed blob store (only their 32-byte
// digests enter agreement), and a hash-chained audit log makes the
// off-chain bytes tamper-evident end to end.
//
//	adaptiveba-server -addr 127.0.0.1:7450 -blob-dir /var/lib/adaptiveba
//	adaptiveba-server -smoke
//
// -smoke runs the self-contained exercise used by CI: a server plus two
// concurrent client sessions over loopback, mixed inline and anchored
// payload sizes, a snapshot mid-run, and a full tamper-evidence
// verification at exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"adaptiveba"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adaptiveba-server:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adaptiveba-server", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:0", "TCP listen address")
		n           = fs.Int("n", 4, "replica count")
		f           = fs.Int("f", 0, "crashed replicas for the agreement rounds (0 ≤ f ≤ t)")
		batch       = fs.Int("batch", 8, "commands per proposer per agreement round")
		snapEvery   = fs.Int("snapshot-every", 1024, "snapshot + truncate each time this many entries accumulate (negative disables)")
		dedupWin    = fs.Int("dedup-window", 64, "write responses retained per client session for duplicate replay")
		blobDir     = fs.String("blob-dir", "", "content-addressed blob store root (required unless -smoke)")
		auditPath   = fs.String("audit-path", "", "audit log file (default <blob-dir>/audit.log)")
		inlineMax   = fs.Int("inline-max", 256, "largest value committed inline; larger values are anchored")
		smoke       = fs.Bool("smoke", false, "run the self-contained smoke exercise and exit")
		smokeWrites = fs.Int("smoke-writes", 8, "writes per client in -smoke")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := []adaptiveba.ServeOption{
		adaptiveba.WithReplicas(*n),
		adaptiveba.WithCrashFaults(*f),
		adaptiveba.WithCommitBatch(*batch),
		adaptiveba.WithSnapshotEvery(*snapEvery),
		adaptiveba.WithDedupWindow(*dedupWin),
		adaptiveba.WithInlineMax(*inlineMax),
	}
	if *auditPath != "" {
		opts = append(opts, adaptiveba.WithAuditPath(*auditPath))
	}

	if *smoke {
		return runSmoke(out, *addr, *blobDir, *smokeWrites, opts)
	}

	if *blobDir == "" {
		return errors.New("-blob-dir is required (or use -smoke)")
	}
	opts = append(opts, adaptiveba.WithBlobDir(*blobDir))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	svc, err := adaptiveba.ServeContext(ctx, *addr, opts...)
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Fprintf(out, "listening on %s (n=%d f=%d inline<=%dB)\n", svc.Addr(), *n, *f, *inlineMax)
	<-ctx.Done()
	st := svc.Stats()
	fmt.Fprintf(out, "shutdown: %d commands in %d rounds, %d words, %d snapshots\n",
		st.Committed, st.Rounds, st.Words, st.Snapshots)
	return nil
}

// runSmoke exercises the full service path in one process: a server,
// two concurrent client sessions, mixed inline and anchored payloads, a
// snapshot forced mid-run by a small threshold, and a tamper-evidence
// verification before exit.
func runSmoke(out io.Writer, addr, blobDir string, writes int, opts []adaptiveba.ServeOption) error {
	if writes < 1 {
		return errors.New("-smoke-writes must be at least 1")
	}
	if blobDir == "" {
		dir, err := os.MkdirTemp("", "adaptiveba-smoke-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		blobDir = dir
	}
	ctx := context.Background()
	// Snapshot threshold below the total write count forces at least one
	// snapshot+truncate while the clients are still writing.
	opts = append(opts, adaptiveba.WithBlobDir(blobDir), adaptiveba.WithSnapshotEvery(writes))
	svc, err := adaptiveba.ServeContext(ctx, addr, opts...)
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Fprintf(out, "smoke: server on %s\n", svc.Addr())

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = smokeClient(ctx, svc.Addr(), id, writes)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", id, err)
		}
	}

	c, err := adaptiveba.DialContext(ctx, svc.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	rep, err := c.Verify(ctx)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	st := svc.Stats()
	if st.Snapshots == 0 {
		return errors.New("smoke never snapshotted")
	}
	fmt.Fprintf(out, "smoke: verified=%v audit-entries=%d blobs=%d\n", rep.OK(), rep.Entries, rep.Blobs)
	fmt.Fprintf(out, "smoke: %d commands in %d rounds, %d words, %d snapshots (%d entries truncated)\n",
		st.Committed, st.Rounds, st.Words, st.Snapshots, st.Truncated)
	return nil
}

// smokeClient is one session's workload: alternating small (inline) and
// large (anchored) puts, read-back checks, and one delete.
func smokeClient(ctx context.Context, addr string, id, writes int) error {
	c, err := adaptiveba.DialContext(ctx, addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < writes; i++ {
		key := []byte(fmt.Sprintf("c%d/k%d", id, i))
		value := []byte(fmt.Sprintf("small-%d-%d", id, i))
		if i%2 == 1 { // above the default inline threshold: anchored
			value = make([]byte, 2048)
			for j := range value {
				value[j] = byte(id + i + j)
			}
		}
		if err := c.Put(ctx, key, value); err != nil {
			return err
		}
		got, err := c.Get(ctx, key)
		if err != nil {
			return err
		}
		if len(got) != len(value) {
			return fmt.Errorf("read-back of %s: %d bytes, want %d", key, len(got), len(value))
		}
	}
	if err := c.Del(ctx, []byte(fmt.Sprintf("c%d/k0", id))); err != nil {
		return err
	}
	if _, err := c.Get(ctx, []byte(fmt.Sprintf("c%d/k0", id))); !errors.Is(err, adaptiveba.ErrKeyNotFound) {
		return fmt.Errorf("deleted key still readable: %v", err)
	}
	return nil
}
