package service

import (
	"bufio"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"adaptiveba/internal/transport"
)

// linkLoss is the seeded schedule of a lossy link between clients and a
// server. Each direction of each connection draws from its own stream,
// so a connection's fate does not depend on how the others interleave.
type linkLoss struct {
	seed int64
	// drop and delay are each frame's chances to be dropped and to be
	// held up for up to maxDelay.
	drop, delay float64
	maxDelay    time.Duration
	// cutWithin, when positive, cuts each connection once 1 +
	// rand(cutWithin) of its request frames have been forwarded.
	cutWithin int
}

// lossyProxy listens in front of the server at addr and returns the
// address to dial instead. It forwards each connection frame by frame:
// the hello and the welcome pass untouched, and every later request frame
// (client → server) and reply frame (server → client) follows loss. A
// delayed frame holds up every frame behind it, as on a slow TCP link, so
// each direction keeps its order. When a connection is cut, the server
// reads the request frames forwarded so far and then the end of the
// stream, and the client's end closes at once. The proxy stops when the
// test ends.
func lossyProxy(t *testing.T, addr string, loss linkLoss) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		pumps sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	accepting := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-accepting
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		pumps.Wait()
	})
	go func() {
		defer close(accepting)
		for i := int64(0); ; i++ {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			srv, err := net.Dial("tcp", addr)
			if err != nil {
				cli.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, cli, srv)
			mu.Unlock()
			up := rand.New(rand.NewSource(loss.seed + 2*i))
			down := rand.New(rand.NewSource(loss.seed + 2*i + 1))
			cut := -1
			if loss.cutWithin > 0 {
				cut = 1 + up.Intn(loss.cutWithin)
			}
			pumps.Add(2)
			go func() { defer pumps.Done(); loss.forward(srv, cli, up, cut) }()
			go func() { defer pumps.Done(); loss.forward(cli, srv, down, -1) }()
		}
	}()
	return ln.Addr().String()
}

// forward copies frames from src to dst, drawing each one's fate from
// rng, until src ends; then it closes both. With cut ≥ 1 it stops after
// forwarding that many frames past the first instead: dst reads the end
// of the stream behind them, and src is closed.
func (loss linkLoss) forward(dst, src net.Conn, rng *rand.Rand, cut int) {
	defer src.Close()
	var w io.Writer = dst
	br := bufio.NewReader(src)
	var fr transport.FrameReader
	for n := 0; ; n++ {
		kind, body, err := fr.Read(br)
		if err != nil {
			dst.Close()
			return
		}
		if n > 0 && rng.Float64() < loss.drop {
			continue
		}
		if n > 0 && rng.Float64() < loss.delay {
			time.Sleep(1 + time.Duration(rng.Int63n(int64(loss.maxDelay))))
		}
		if transport.WriteFrame(w, kind, body) != nil {
			// dst is gone. Keep reading src until it ends, so that closing
			// it resets no peer with frames still unread.
			w = io.Discard
		}
		if n == cut {
			dst.(*net.TCPConn).CloseWrite()
			return
		}
	}
}
