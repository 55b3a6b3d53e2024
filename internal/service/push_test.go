package service

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"adaptiveba/internal/transport"
)

// A write never leaves its connection's reader: the reader that queues a
// batch commits the queue when no other reader is committing, and writes
// the replies with one write that never waits. The tests here pin that
// path over real TCP: no hand-off to the writer goroutine while the
// socket takes the replies, the would-block remainder handed to it when
// the socket does not, and Close while a reader is inside a commit.

// onlyConn returns s's one live connection.
func onlyConn(t *testing.T, s *Server) *serverConn {
	t.Helper()
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if len(s.conns) != 1 {
		t.Fatalf("%d live connections, want 1", len(s.conns))
	}
	for c := range s.conns {
		return c
	}
	return nil
}

// TestRepliesNeverWakeTheWriter: while the socket takes every reply at
// once, the committing reader writes them itself. 20 serial Puts and a
// 32-put burst wake the connection's writer goroutine 0 times, and the
// burst's 32 replies leave in one write: the client's first read after
// the burst, issued before they can arrive, returns all of them.
func TestRepliesNeverWakeTheWriter(t *testing.T) {
	const serial, burst = 20, 32
	s := startServer(t, nil)
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range serial {
		if err := c.Put(fmt.Appendf(nil, "s%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	sc := onlyConn(t, s)
	if w := sc.wakes.Load(); w != 0 {
		t.Fatalf("%d serial Puts woke the writer goroutine %d times, want 0", serial, w)
	}

	before := s.Stats().Rounds
	pipelinePuts(t, c.conn, c.ID(), serial+1, serial+burst)
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64<<10)
	n, err := c.conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rounds := s.Stats().Rounds - before; rounds != 1 {
		t.Fatalf("the burst took %d rounds, want 1 (one batch, one flush)", rounds)
	}
	var fr transport.FrameReader
	br := bufio.NewReader(bytes.NewReader(buf[:n]))
	for seq := serial + 1; seq <= serial+burst; seq++ {
		kind, body, err := fr.Read(br)
		if err != nil {
			t.Fatalf("the first read held %d replies, want all %d in one write", seq-serial-1, burst)
		}
		if resp, err := DecodeResponse(body); kind != FrameResponse || err != nil || resp.Seq != seq || resp.Status != StatusOK {
			t.Fatalf("reply %d: kind %d, %+v, %v", seq, kind, resp, err)
		}
	}
	if br.Buffered() != 0 {
		t.Fatalf("%d bytes after the burst's replies", br.Buffered())
	}
	if w := sc.wakes.Load(); w != 0 {
		t.Fatalf("the burst woke the writer goroutine %d times, want 0", w)
	}
}

// TestFullSocketHandsOffToWriter: the would-block path over real TCP. A
// client with a small receive buffer pipelines puts and never reads, and
// the server's send buffer is small too, so the committing reader's
// write soon meets a full socket. What it does not take goes to the
// writer goroutine, which blocks in its write; the replies behind it
// fill the 64-reply outbox, and the server closes the connection. The
// client then reads a clean prefix of replies and the end of the stream,
// never a gap.
func TestFullSocketHandsOffToWriter(t *testing.T) {
	const depth = 2000
	s := startServer(t, nil)
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc := onlyConn(t, s)
	if err := c.conn.(*net.TCPConn).SetReadBuffer(1 << 10); err != nil {
		t.Fatal(err)
	}
	if err := sc.conn.(*net.TCPConn).SetWriteBuffer(1 << 10); err != nil {
		t.Fatal(err)
	}

	frames := putFrames(t, c.ID(), 1, depth, func(int) []byte { return []byte("v") })
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.conn.Write(frames) // fails once the server hangs up
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.connMu.Lock()
		_, live := s.conns[sc]
		s.connMu.Unlock()
		if !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a client that never reads was never disconnected")
		}
	}
	if w := sc.wakes.Load(); w == 0 {
		t.Fatal("the connection closed without a would-block remainder reaching the writer goroutine")
	}

	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := 0
	for ; got < depth; got++ {
		kind, body, err := c.fr.Read(c.br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("stream stalled after %d replies", got)
			}
			break // the end of the stream: EOF, or a reset if requests were unread
		}
		if resp, err := DecodeResponse(body); kind != FrameResponse || err != nil || resp.Seq != got+1 || resp.Status != StatusOK {
			t.Fatalf("reply %d: kind %d, %+v, %v", got+1, kind, resp, err)
		}
	}
	if got == depth {
		t.Fatalf("all %d replies arrived through a client that never read", depth)
	}
	t.Logf("%d of %d replies, then the end of the stream; %d wakes", got, depth, sc.wakes.Load())
}

// TestCloseDuringCommit: Close while a reader is inside a flush. The
// flush's audit write waits at a gate until Close has begun; a Put from
// a second connection is queued behind it meanwhile. Close returns, the
// held Put commits and the queued one never does: the holder stops
// draining once Close has begun, so the batch is still in the queue.
// Nothing is left running (startServer's leak check).
func TestCloseDuringCommit(t *testing.T) {
	s := startServer(t, nil)
	gate := &gatedAudit{entered: make(chan struct{}), open: make(chan struct{})}
	s.core.mu.Lock()
	gate.auditFile, s.core.audit.f = s.core.audit.f, gate
	s.core.mu.Unlock()
	var once sync.Once
	open := func() { once.Do(func() { close(gate.open) }) }
	t.Cleanup(open)

	var clients []*Client
	for range 2 {
		c, err := Dial(s.Addr(), ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)
	}
	held, queued := clients[0], clients[1]
	sendFrames(t, held, &Request{Client: held.ID(), Seq: 1, Op: ReqPut, Key: []byte("held"), Value: val1})
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the held Put never reached its audit write")
	}
	sendFrames(t, queued, &Request{Client: queued.ID(), Seq: 1, Op: ReqPut, Key: []byte("queued"), Value: val1})
	for deadline := time.Now().Add(5 * time.Second); handedOff(s) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second Put was never queued")
		}
	}
	if n := s.Stats().Committed; n != 0 {
		t.Fatalf("%d committed before the held flush finished", n)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never began")
	}
	open()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a reader inside a commit")
	}
	if n := s.Stats().Committed; n != 1 {
		t.Fatalf("%d committed, want 1: the held Put, not the one queued behind Close", n)
	}
	if n := len(s.reqCh); n != 1 {
		t.Fatalf("%d batches still queued, want the second Put's: the holder went on draining after Close began", n)
	}
}

// BenchmarkServePut times client Puts through a Server over loopback TCP
// at n = 4: serial, one Put per round trip, and burst32, 32 pipelined
// Puts shaped like the repo benchmark's (every 16th value 4 KiB) per
// operation. It is the serving path, hand-offs and socket writes
// included, that BenchmarkRunACSLogCommit leaves out; `make
// profile-serve` profiles it.
func BenchmarkServePut(b *testing.B) {
	serve := func(b *testing.B) *Client {
		dir := b.TempDir()
		s, err := NewServer(ServerConfig{
			Core: Config{
				N:         4,
				BlobDir:   filepath.Join(dir, "blobs"),
				AuditPath: filepath.Join(dir, "audit.log"),
				InlineMax: 64,
			},
			Addr: "127.0.0.1:0",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		c, err := Dial(s.Addr(), ClientConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}

	b.Run("serial", func(b *testing.B) {
		c := serve(b)
		key, val := []byte("k"), []byte("v")
		b.ReportAllocs()
		for b.Loop() {
			if err := c.Put(key, val); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("burst32", func(b *testing.B) {
		const burst = 32
		c := serve(b)
		var frames bytes.Buffer
		seq := 0
		b.ReportAllocs()
		for b.Loop() {
			frames.Reset()
			for range burst {
				seq++
				req := EncodeRequest(&Request{
					Client: c.ID(), Seq: seq, Op: ReqPut,
					Key: fmt.Appendf(nil, "k%02d", seq%burst), Value: burstValue(seq),
				})
				transport.WriteFrame(&frames, FrameRequest, req)
			}
			if _, err := c.conn.Write(frames.Bytes()); err != nil {
				b.Fatal(err)
			}
			c.conn.SetReadDeadline(time.Now().Add(c.cfg.Timeout))
			for want := seq - burst + 1; want <= seq; want++ {
				kind, body, err := c.fr.Read(c.br)
				if err != nil || kind != FrameResponse {
					b.Fatalf("reply %d: kind %d, %v", want, kind, err)
				}
				if resp, err := DecodeResponse(body); err != nil || resp.Seq != want || resp.Status != StatusOK {
					b.Fatalf("reply %d: %+v, %v", want, resp, err)
				}
			}
		}
	})
}
