package testenv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Faults is a seeded fault schedule for TCP links that carry
// [u32 len][kind][body] frames. A test puts a proxy on a link and dials
// the address it returns. Each frame of a kind in Kinds is dropped,
// delayed or passed on; any other frame, such as a handshake, passes
// untouched. Dropped and Delayed count what the schedule did. A delayed
// frame leaves no earlier than the frame before it, so each direction
// keeps its order, and no frame waits longer than MaxDelay. Each direction
// of each connection draws from its own stream, so a link's verdicts are
// a pure function of Seed and the link. The tick windows start at the
// first scheduled frame on any link of the schedule: one Faults, one run.
type Faults struct {
	Seed  int64
	Kinds []byte
	// Drop and Delay are a scheduled frame's chances to be dropped and to
	// be held up for up to MaxDelay.
	Drop, Delay float64
	MaxDelay    time.Duration
	// CutWithin, when positive, cuts each connection once its near end
	// has sent 1 + rand(CutWithin) scheduled frames.
	CutWithin int
	// Tick is a mesh's tick interval, and N its size. For one tick in
	// every FlapEvery, every frame to or from one seeded process is lost;
	// for one tick in every PartitionEvery, every frame across the
	// process-id parity cut is lost. 0 turns a window off.
	Tick                         time.Duration
	N, FlapEvery, PartitionEvery int

	Dropped, Delayed atomic.Int64
	start            sync.Once
	epoch            time.Time
}

// Proxy puts a client's link in front of the server at addr.
func (f *Faults) Proxy(t testing.TB, addr string) string { return f.Link(t, 0, 0, addr) }

// Link puts the mesh link from process from to process to in front of
// to's address addr and returns the address for from to dial. Each
// connection dials addr until it answers, so a link may come up before
// its far end. The proxy stops when the test ends.
func (f *Faults) Link(t testing.TB, from, to int, addr string) string {
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
	done, accepting := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() {
		close(done)
		ln.Close()
		<-accepting
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		pumps.Wait()
	})
	base := f.Seed + int64(from)<<40 + int64(to)<<20
	go func() {
		defer close(accepting)
		for i := int64(0); ; i++ {
			near, err := ln.Accept()
			if err != nil {
				return
			}
			far := dialUntil(addr, done)
			if far == nil {
				near.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, near, far)
			mu.Unlock()
			up := rand.New(rand.NewSource(base + 2*i))
			down := rand.New(rand.NewSource(base + 2*i + 1))
			cut := 0
			if f.CutWithin > 0 {
				cut = 1 + up.Intn(f.CutWithin)
			}
			pumps.Add(2)
			go func() { defer pumps.Done(); f.pump(far, near, from, to, up, cut) }()
			go func() { defer pumps.Done(); f.pump(near, far, to, from, down, 0) }()
		}
	}()
	return ln.Addr().String()
}

// dialUntil dials addr until it answers, done closes, or 10 s pass.
func dialUntil(addr string, done <-chan struct{}) net.Conn {
	for deadline := time.Now().Add(10 * time.Second); ; {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil || time.Now().After(deadline) {
			return c
		}
		select {
		case <-done:
			return nil
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// fate decides the fate of a scheduled frame from process from to process
// to that reaches the proxy at elapsed time at. The draws come first and
// are the same whatever at is, so a window never shifts a link's stream.
func (f *Faults) fate(rng *rand.Rand, from, to int, at time.Duration) (drop bool, delay time.Duration) {
	drop = rng.Float64() < f.Drop
	if !drop && rng.Float64() < f.Delay {
		delay = 1 + time.Duration(rng.Int63n(int64(f.MaxDelay)))
	}
	if f.Tick > 0 {
		tick := int(at / f.Tick)
		if e := f.PartitionEvery; e > 0 && tick%e == 0 && from%2 != to%2 {
			return true, 0
		}
		if e := f.FlapEvery; e > 0 && tick%e == 0 {
			if victim := rand.New(rand.NewSource(f.Seed + int64(tick/e))).Intn(f.N); from == victim || to == victim {
				return true, 0
			}
		}
	}
	return drop, delay
}

// pump copies frames from src to dst until src ends, then closes both. It
// settles each frame's fate on arrival, and a writer holds the frame until
// it is due. With cut ≥ 1 it stops at the cut-th scheduled frame: src
// closes at once, and dst reads the end of the stream after the frames.
func (f *Faults) pump(dst, src net.Conn, from, to int, rng *rand.Rand, cut int) {
	type queued struct {
		frame []byte
		due   time.Time
	}
	q := make(chan queued, 1024)
	written := make(chan struct{})
	go func() {
		defer close(written)
		var w io.Writer = dst
		for fr := range q {
			time.Sleep(time.Until(fr.due))
			if _, err := w.Write(fr.frame); err != nil {
				// dst is gone. Keep reading src until it ends, so that
				// closing it resets no peer with frames still unread.
				w = io.Discard
			}
		}
		if cut > 0 {
			dst.(*net.TCPConn).CloseWrite()
		} else {
			dst.Close()
		}
	}()
	defer func() { close(q); src.Close(); <-written }()
	br := bufio.NewReader(src)
	var last time.Time
	for n := 0; cut == 0 || n < cut; {
		frame, err := readFrame(br)
		if err != nil {
			return
		}
		due := time.Now()
		if slices.Contains(f.Kinds, frame[4]) {
			n++
			f.start.Do(func() { f.epoch = due })
			drop, delay := f.fate(rng, from, to, due.Sub(f.epoch))
			if drop {
				f.Dropped.Add(1)
				continue
			}
			if delay > 0 {
				f.Delayed.Add(1)
				due = due.Add(delay)
			}
		}
		if due.After(last) {
			last = due
		}
		q <- queued{frame, last}
	}
}

// readFrame reads one whole frame, header included, into a new buffer.
func readFrame(r io.Reader) ([]byte, error) {
	frame := make([]byte, 4)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(frame)
	if size == 0 || size > 4<<20 {
		return nil, fmt.Errorf("testenv: bad frame size %d", size)
	}
	frame = append(frame, make([]byte, size)...)
	_, err := io.ReadFull(r, frame[4:])
	return frame, err
}
