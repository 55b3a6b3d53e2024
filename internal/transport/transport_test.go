package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/strongba"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// mustSetup is the trusted setup of an n-process test cluster.
func mustSetup(t *testing.T, n int) *proto.Crypto {
	t.Helper()
	crypto, err := Setup(n, "tcp-test")
	if err != nil {
		t.Fatal(err)
	}
	return crypto
}

// mustAddrs reserves n loopback ports for a test that starts its own nodes.
func mustAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs, release, err := reserveLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	release()
	return addrs
}

// clusterCtx bounds one test's cluster runs.
func clusterCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(t.Context(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// protocolMachines hosts one of the CLI protocols on every process, with
// process 0 as the BB sender and a unanimous input otherwise.
func protocolMachines(crypto *proto.Crypto, protocol string) func(types.ProcessID) (proto.Machine, error) {
	return func(id types.ProcessID) (proto.Machine, error) {
		return NewProtocolMachine("netbench", protocol, crypto.Params, crypto, id, 0, types.Value("net-bench-"+protocol))
	}
}

func TestStrongBAOverTCP(t *testing.T) {
	testenv.NoLeaks(t)
	crypto := mustSetup(t, 5)
	res, err := RunCluster(clusterCtx(t), ClusterOpts{
		Node: Config{Params: crypto.Params, Crypto: crypto, TickInterval: 10 * time.Millisecond},
		Machine: func(id types.ProcessID) (proto.Machine, error) {
			return strongba.NewMachine(strongba.Config{
				Params: crypto.Params, Crypto: crypto, ID: id,
				Input: types.One, Tag: "tcp",
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 5 {
		t.Fatalf("got %d decisions", len(res.Decisions))
	}
	for id, v := range res.Decisions {
		if !v.Equal(types.One) {
			t.Errorf("node %v decided %v", id, v)
		}
	}
}

func TestBBOverTCP(t *testing.T) {
	testenv.NoLeaks(t)
	crypto := mustSetup(t, 5)
	res, err := RunCluster(clusterCtx(t), ClusterOpts{
		Node: Config{Params: crypto.Params, Crypto: crypto, TickInterval: 10 * time.Millisecond},
		Machine: func(id types.ProcessID) (proto.Machine, error) {
			return bb.NewMachine(bb.Config{
				Params: crypto.Params, Crypto: crypto, ID: id,
				Sender: 0, Input: types.Value("over-tcp"), Tag: "tcp",
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range res.Decisions {
		if !v.Equal(types.Value("over-tcp")) {
			t.Errorf("node %v decided %v", id, v)
		}
	}
}

func TestRecorderCountsBytes(t *testing.T) {
	testenv.NoLeaks(t)
	crypto := mustSetup(t, 3)
	res, err := RunCluster(clusterCtx(t), ClusterOpts{
		Node: Config{Params: crypto.Params, Crypto: crypto, TickInterval: 10 * time.Millisecond},
		Machine: func(id types.ProcessID) (proto.Machine, error) {
			return strongba.NewMachine(strongba.Config{
				Params: crypto.Params, Crypto: crypto, ID: id, Input: types.Zero, Tag: "rec",
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var totalBytes, totalWords int64
	for _, s := range res.Reports {
		totalBytes += s.Honest.Bytes
		totalWords += s.Honest.Words
	}
	if totalBytes == 0 || totalWords == 0 {
		t.Errorf("recorder saw bytes=%d words=%d", totalBytes, totalWords)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	crypto := mustSetup(t, 3)
	params := crypto.Params
	m, err := strongba.NewMachine(strongba.Config{Params: params, Crypto: crypto, ID: 0, Input: types.One, Tag: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(Config{Params: params, Crypto: crypto, ID: 0, Addrs: []string{"a"}, Registry: protocols.Registry()}, m); err == nil {
		t.Error("wrong addr count accepted")
	}
	if _, err := NewNode(Config{Params: params, Crypto: crypto, ID: 9, Addrs: []string{"a", "b", "c"}, Registry: protocols.Registry()}, m); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := NewNode(Config{Params: params, Crypto: crypto, ID: 0, Addrs: []string{"a", "b", "c"}}, m); err == nil {
		t.Error("nil registry accepted")
	}
}

func TestFullRegistryCoversAllProtocols(t *testing.T) {
	reg := protocols.Registry()
	for _, p := range []proto.Payload{
		bb.HelpReq{Phase: 1},
		strongba.Fallback{},
	} {
		if _, err := reg.EncodePayload(p); err != nil {
			t.Errorf("%s not registered: %v", p.Type(), err)
		}
	}
}

// crashAt fail-stops its node at tick at: the machine closes the node
// from inside its own step instead of stepping, so the node's run ends
// with ErrClosed and its peers see every connection to it drop.
type crashAt struct {
	proto.Machine
	at   types.Tick
	node *Node
}

func (c *crashAt) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	if now >= c.at {
		c.node.Close()
		return outs
	}
	return c.Machine.Tick(now, inbox, outs)
}

// TestCrashInjectionOverTCP fail-stops one node mid-run; the survivors
// must still decide via the fallback path — fault tolerance demonstrated
// on the real network stack, not just the simulator.
func TestCrashInjectionOverTCP(t *testing.T) {
	testenv.NoLeaks(t)
	crypto := mustSetup(t, 5)
	params := crypto.Params
	addrs := mustAddrs(t, 5)
	ctx := clusterCtx(t)

	var (
		mu        sync.Mutex
		decisions = make(map[types.ProcessID]types.Value)
		crashed   int
		wg        sync.WaitGroup
	)
	for i := 0; i < 5; i++ {
		id := types.ProcessID(i)
		sm, err := strongba.NewMachine(strongba.Config{
			Params: params, Crypto: crypto, ID: id, Input: types.One, Tag: "ci",
		})
		if err != nil {
			t.Fatal(err)
		}
		var m proto.Machine = sm
		var crash *crashAt
		if id == 4 {
			crash = &crashAt{Machine: m, at: 2} // dies before the fast path can finish
			m = crash
		}
		node, err := NewNode(Config{
			Params: params, Crypto: crypto, ID: id, Addrs: addrs,
			Registry:     protocols.Registry(),
			TickInterval: 10 * time.Millisecond,
		}, m)
		if err != nil {
			t.Fatal(err)
		}
		if crash != nil {
			crash.node = node
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := node.Run(ctx)
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(err, ErrClosed) {
				crashed++
				return
			}
			if err != nil {
				t.Errorf("node %v: %v", id, err)
				return
			}
			decisions[id] = v
		}()
	}
	wg.Wait()
	if crashed != 1 {
		t.Fatalf("crashed = %d, want 1", crashed)
	}
	if len(decisions) != 4 {
		t.Fatalf("decisions = %d, want 4 survivors", len(decisions))
	}
	for id, v := range decisions {
		if !v.Equal(types.One) {
			t.Errorf("node %v decided %v, want 1", id, v)
		}
	}
}

// chatter is a payload for the lifecycle tests below.
type chatter struct{ Seq int }

func (chatter) Type() string { return "test/chatter" }
func (chatter) Words() int   { return 1 }

// chatterMachine broadcasts every tick and never finishes, so a node
// running it has active deliveries in flight until Close ends the run.
type chatterMachine struct {
	params types.Params
	seq    int
}

func (m *chatterMachine) broadcast(outs []proto.Outgoing) []proto.Outgoing {
	m.seq++
	return proto.AppendBroadcast(outs, m.params, "chat", chatter{Seq: m.seq})
}

func (m *chatterMachine) Begin(_ types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return m.broadcast(outs)
}
func (m *chatterMachine) Tick(_ types.Tick, _ []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	return m.broadcast(outs)
}
func (m *chatterMachine) Output() (types.Value, bool) { return nil, false }
func (m *chatterMachine) Done() bool                  { return false }

func chatterRegistry() *wire.Registry {
	reg := protocols.Registry()
	reg.MustRegister(wire.Codec{
		Type: "test/chatter",
		Encode: func(w *wire.Writer, p proto.Payload) error {
			w.PutInt(p.(chatter).Seq)
			return nil
		},
		Decode: func(r *wire.Reader) (proto.Payload, error) {
			return chatter{Seq: r.Int()}, r.Err()
		},
	})
	return reg
}

// TestCloseUnblocksActiveCluster tears a busy mesh down: every node runs
// a machine that never decides, so the only way out of Run is Close.
// Several goroutines per node race Close against live deliveries; every
// Run must return ErrClosed promptly (no deadlock) and the reader,
// acceptor, and tick goroutines must all drain (no leak, checked by
// testenv.NoLeaks).
func TestCloseUnblocksActiveCluster(t *testing.T) {
	testenv.NoLeaks(t)
	const n = 5
	crypto := mustSetup(t, n)
	params := crypto.Params
	addrs := mustAddrs(t, n)

	nodes := make([]*Node, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(Config{
			Params: params, Crypto: crypto, ID: types.ProcessID(i), Addrs: addrs,
			Registry:     chatterRegistry(),
			TickInterval: 5 * time.Millisecond,
		}, &chatterMachine{params: params})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		go func() {
			_, err := node.Run(context.Background())
			errs <- err
		}()
	}

	// Let the mesh come up and exchange a few hundred messages.
	time.Sleep(300 * time.Millisecond)

	var wg sync.WaitGroup
	for _, node := range nodes {
		for k := 0; k < 3; k++ {
			wg.Add(1)
			go func(nd *Node) {
				defer wg.Done()
				if err := nd.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}(node)
		}
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("Run returned %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Run did not return after Close — deadlock")
		}
	}
	// Close after Run has already returned stays a no-op.
	if err := nodes[0].Close(); err != nil {
		t.Errorf("repeat Close: %v", err)
	}
}

// TestCloseDuringConnectAborts closes a node whose peers never come up:
// the dial retry loops must notice and Run must return ErrClosed long
// before the dial deadline.
func TestCloseDuringConnectAborts(t *testing.T) {
	testenv.NoLeaks(t)
	crypto := mustSetup(t, 3)
	params := crypto.Params
	addrs := mustAddrs(t, 3) // nothing listens on the peer ports
	node, err := NewNode(Config{
		Params: params, Crypto: crypto, ID: 0, Addrs: addrs,
		Registry:    chatterRegistry(),
		DialTimeout: 30 * time.Second,
	}, &chatterMachine{params: params})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() {
		_, err := node.Run(context.Background())
		errs <- err
	}()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	node.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Run returned %v, want ErrClosed", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("Run took %v to notice Close during dialing", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Close during connect")
	}
}

// TestCloseBeforeRun: a node closed before Run starts must refuse to run.
func TestCloseBeforeRun(t *testing.T) {
	testenv.NoLeaks(t)
	crypto := mustSetup(t, 3)
	params := crypto.Params
	addrs := mustAddrs(t, 3)
	node, err := NewNode(Config{
		Params: params, Crypto: crypto, ID: 0, Addrs: addrs,
		Registry: chatterRegistry(),
	}, &chatterMachine{params: params})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := node.Run(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close returned %v, want ErrClosed", err)
	}
}
