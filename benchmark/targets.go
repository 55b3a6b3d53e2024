package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"adaptiveba"
	"adaptiveba/internal/service"
	"adaptiveba/internal/transport"
	"adaptiveba/internal/wire"
)

// The top rungs: each workload driven through the public functions, one
// connection, one request (or burst, or call) in flight.

var keys = func() (k [numKeys][]byte) {
	for i := range k {
		k[i] = keyBytes(i)
	}
	return
}()

// svcTarget is a served KV service plus its storage directory.
type svcTarget struct {
	ctx context.Context
	dir string
	svc *adaptiveba.Service
}

func openService(ctx context.Context, e *env) (svcTarget, error) {
	dir, err := e.dir()
	if err != nil {
		return svcTarget{}, err
	}
	svc, err := adaptiveba.ServeContext(ctx, "127.0.0.1:0", adaptiveba.WithBlobDir(dir))
	if err != nil {
		os.RemoveAll(dir)
		return svcTarget{}, err
	}
	return svcTarget{ctx: ctx, dir: dir, svc: svc}, nil
}

func (t *svcTarget) costs() (int64, int64) {
	st := t.svc.Stats()
	return st.Words, int64(st.Committed)
}

// counters exposes the flush count: a flush of at most 32 writes is one
// agreement round.
func (t *svcTarget) counters() map[string]float64 {
	return map[string]float64{"rounds": float64(t.svc.Stats().Rounds)}
}

// closeService shuts the server down and removes its blobs and audit
// log, also when the shutdown fails.
func (t *svcTarget) closeService() error {
	err := t.svc.Close()
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}

// verify reads every key back against the model and asks the server for
// its end-to-end tamper walk: chain intact, no bad blob, one audit entry
// per committed write.
func (t *svcTarget) verify(s stream) (string, error) {
	// The walk re-hashes every blob; it gets a client of its own so the
	// measured client's timeout stays the service default.
	cl, err := adaptiveba.DialContext(t.ctx, t.svc.Addr(), adaptiveba.WithRequestTimeout(time.Minute))
	if err != nil {
		return "", err
	}
	defer cl.Close()
	want, writes := s.state()
	for k := range keys {
		got, err := cl.Get(t.ctx, keys[k])
		if err := checkGet(want[k], got, err); err != nil {
			return "", fmt.Errorf("read-back of %s: %w", keys[k], err)
		}
	}
	rep, err := cl.Verify(t.ctx)
	if err != nil {
		return "", fmt.Errorf("verify: %w", err)
	}
	if !rep.OK() {
		return "", fmt.Errorf("verify: chain_ok=%t bad_blobs=%d", rep.ChainOK, rep.BadBlobs)
	}
	if rep.Entries != writes {
		return "", fmt.Errorf("verify: %d audit entries for %d committed writes", rep.Entries, writes)
	}
	return rep.StateHash, nil
}

// checkGet compares a Get's outcome with the model.
func checkGet(want, got []byte, err error) error {
	switch {
	case want == nil && errors.Is(err, adaptiveba.ErrKeyNotFound):
		return nil
	case err != nil:
		return err
	case want == nil:
		return fmt.Errorf("got %d bytes for a key the model says is absent", len(got))
	case !bytes.Equal(got, want):
		return fmt.Errorf("got %d bytes that differ from the model's %d", len(got), len(want))
	}
	return nil
}

// clientTarget drives a service through adaptiveba.Client, one request
// at a time: svc-put-serial and svc-read-mostly.
type clientTarget struct {
	svcTarget
	cl *adaptiveba.Client
}

// openClient serves, dials and preloads every key through the client.
func openClient(ctx context.Context, e *env, s stream) (target, error) {
	st, err := openService(ctx, e)
	if err != nil {
		return nil, err
	}
	cl, err := adaptiveba.DialContext(ctx, st.svc.Addr(), adaptiveba.WithRequestTimeout(clientTimeout))
	if err != nil {
		st.closeService()
		return nil, err
	}
	t := &clientTarget{svcTarget: st, cl: cl}
	for _, o := range s.preload() {
		if err := cl.Put(ctx, keys[o.key], o.value); err != nil {
			t.close()
			return nil, fmt.Errorf("preload of %s: %w", keys[o.key], err)
		}
	}
	return t, nil
}

func (t *clientTarget) step(_ int, u unit, _ *tracer) (string, error) {
	o := &u.ops[0]
	switch o.kind {
	case opPut:
		return "client.put", t.cl.Put(t.ctx, keys[o.key], o.value)
	case opDel:
		return "client.del", t.cl.Del(t.ctx, keys[o.key])
	default:
		got, err := t.cl.Get(t.ctx, keys[o.key])
		return "client.get", checkGet(o.want, got, err)
	}
}

func (t *clientTarget) close() error {
	t.cl.Close()
	return t.closeService()
}

// burstTarget is the raw pipelined client of svc-put-burst32: it writes
// a whole burst of request frames in one TCP write and waits for every
// reply. A burst never exceeds the server connection's 64-slot outbox,
// which drops replies when full.
type burstTarget struct {
	svcTarget
	conn net.Conn
	fr   transport.FrameReader
	id   int
	seq  int
	out  bytes.Buffer
}

func openBurst(ctx context.Context, e *env, _ stream) (target, error) {
	st, err := openService(ctx, e)
	if err != nil {
		return nil, err
	}
	t := &burstTarget{svcTarget: st}
	if err := t.dial(); err != nil {
		st.closeService()
		return nil, err
	}
	return t, nil
}

// dial performs the service's hello/welcome handshake.
func (t *burstTarget) dial() error {
	conn, err := net.Dial("tcp", t.svc.Addr())
	if err != nil {
		return err
	}
	if err := transport.WriteFrame(conn, service.FrameHello, nil); err != nil {
		conn.Close()
		return err
	}
	conn.SetReadDeadline(time.Now().Add(clientTimeout))
	kind, body, err := t.fr.Read(conn)
	if err != nil || kind != service.FrameWelcome {
		conn.Close()
		return fmt.Errorf("handshake failed: kind=%d err=%v", kind, err)
	}
	r := wire.NewReader(body)
	t.id = r.Int()
	if err := r.Close(); err != nil {
		conn.Close()
		return fmt.Errorf("bad welcome: %w", err)
	}
	t.conn = conn
	return nil
}

func (t *burstTarget) step(_ int, u unit, _ *tracer) (string, error) {
	const span = "burst"
	t.out.Reset()
	first := t.seq + 1
	for i := range u.ops {
		o := &u.ops[i]
		t.seq++
		req := service.EncodeRequest(&service.Request{
			Client: t.id, Seq: t.seq, Op: service.ReqPut, Key: keys[o.key], Value: o.value,
		})
		if err := transport.WriteFrame(&t.out, service.FrameRequest, req); err != nil {
			return span, err
		}
	}
	if _, err := t.conn.Write(t.out.Bytes()); err != nil {
		return span, err
	}
	t.conn.SetReadDeadline(time.Now().Add(clientTimeout))
	var acked [burstOps]bool
	for n := 0; n < len(u.ops); {
		kind, body, err := t.fr.Read(t.conn)
		if err != nil {
			return span, fmt.Errorf("after %d of %d replies: %w", n, len(u.ops), err)
		}
		if kind != service.FrameResponse {
			continue
		}
		resp, err := service.DecodeResponse(body)
		if err != nil {
			return span, err
		}
		if err := service.ResponseErr(resp); err != nil {
			return span, fmt.Errorf("seq %d: %w", resp.Seq, err)
		}
		// A reply to an earlier, failed burst may still arrive.
		if j := resp.Seq - first; j >= 0 && j < len(u.ops) && !acked[j] {
			acked[j] = true
			n++
		}
	}
	return span, nil
}

func (t *burstTarget) close() error {
	t.conn.Close()
	return t.closeService()
}

// libTarget is lib-acs-crash1: the batched replicated log in process,
// no disk and no sockets.
type libTarget struct {
	ctx    context.Context
	queues [][][]byte
	words  int64
	commit int64
	hash   [32]byte
}

func openLib(ctx context.Context, _ *env, s stream) (target, error) {
	return &libTarget{ctx: ctx, queues: s.(*libStream).queues}, nil
}

func (t *libTarget) step(_ int, u unit, _ *tracer) (string, error) {
	const span = "lib.call"
	res, err := adaptiveba.ReplicateBatchContext(t.ctx, libN, t.queues, libRounds,
		adaptiveba.WithFaults(libFaults), adaptiveba.WithBatch(libBatch), adaptiveba.WithSeed(int64(u.call)))
	if err != nil {
		return span, err
	}
	t.words += res.Words
	t.commit += int64(res.Committed)
	t.hash = sha256.Sum256(append(t.hash[:], res.StateHash...))
	switch {
	case !res.Agreement:
		return span, errors.New("no agreement")
	case res.Committed != libCommitsPerCall:
		return span, fmt.Errorf("committed %d commands, want %d", res.Committed, libCommitsPerCall)
	case res.SubsetMin < libN-(libN-1)/2:
		return span, fmt.Errorf("smallest committed subset %d is below n-t", res.SubsetMin)
	}
	return span, nil
}

func (t *libTarget) costs() (int64, int64) { return t.words, t.commit }

// verify has nothing left to check: every call was checked as it ran.
// The state hash chains every call's replicated-state digest.
func (t *libTarget) verify(stream) (string, error) { return hex.EncodeToString(t.hash[:16]), nil }

func (t *libTarget) close() error { return nil }

// workloads is the workload table; the names are fixed.
var workloads = []*workload{
	{
		name: "svc-put-serial",
		why: "One write per flush and one ACS round per write at n=4 f=0: per-commit fixed costs " +
			"(engine, crypto and simulator construction, one audit append, a TCP round trip) do nearly all the work.",
		unitOps: 1, perWindow25: 700, roundTo: delStride, latUnits: 1,
		newStream: func(seed int64) stream { return &serialStream{newSvcStream(seed)} },
		open:      openClient,
		rungs: []rung{
			{"service.Core", openCore}, {"engine.RunACSLog", openServiceEngine},
			{"engine.setup", openSetup(4)}, {"storage", openStorage},
		},
	},
	{
		name: "svc-put-burst32",
		why: "Bursts of 32 pipelined writes over TCP, every 16th a 4 KiB blob: agreement is amortised 1/32, " +
			"so per-entry work (audit append, kv apply, blob put, reply fan-out) dominates.",
		unitOps: burstOps, perWindow25: 300, roundTo: 1, latUnits: 1, warmUnits: 240,
		newStream: func(seed int64) stream {
			return &burstStream{svcStream: newSvcStream(seed), seen: map[int]bool{}}
		},
		open:  openBurst,
		rungs: []rung{{"service.Core", openCore}, {"engine.RunACSLog", openServiceEngine}, {"storage", openStorage}},
	},
	{
		name: "svc-read-mostly",
		why: "19 Gets per Put at a fixed stride over 1024 preloaded keys, half of them 8 KiB anchored blobs: " +
			"reads bypass agreement, so framing, the run-loop hand-off, kv.Get and blob.Get set the latency.",
		unitOps: 1, perWindow25: 7000, roundTo: putStride, latUnits: putStride,
		newStream: func(seed int64) stream { return &readMostlyStream{newSvcStream(seed)} },
		open:      openClient,
		rungs:     []rung{{"service.Core", openCore}, {"storage", openStorage}},
	},
	{
		name: "lib-acs-crash1",
		why: "In-process batched log at n=9 with one crashed proposer: only the paper's layers run " +
			"(ACS, BB, strong BA, fallback, threshold crypto, simulator), and the crash makes the adaptive cost visible.",
		unitOps: libCommitsPerCall, perWindow25: 16, roundTo: 1, latUnits: 1, warmUnits: 24,
		newStream: func(seed int64) stream { return &libStream{queues: libQueues(seed)} },
		open:      openLib,
		rungs:     []rung{{"engine.RunACSLog", openLibEngine}, {"engine.setup", openSetup(libN)}},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
