package main

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"adaptiveba/internal/blob"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/kv"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/service"
	"adaptiveba/internal/types"
)

// The rungs below the public surface. Each replays the same seeded
// stream one module further in: service.Core with the network taken
// away, engine.RunACSLog with the commands Core would have encoded, the
// key ring and crypto engine.Run builds per call, and the storage calls
// Core makes per entry. The benchmark repeats the little glue between
// them (command encoding, the round-robin spread over proposers) because
// the program does not export it.

// rung is one level of a workload's ladder.
type rung struct {
	name string
	open func(ctx context.Context, e *env, s stream) (stepper, error)
}

// counter is a stepper that keeps cumulative counts a per-layer metric
// is derived from.
type counter interface {
	counters() map[string]float64
}

const inlineMax = 256 // service.Config's default InlineMax

func b64(b []byte) string { return base64.RawURLEncoding.EncodeToString(b) }

// command is the kv command service.Core commits for a write.
func command(o *op) types.Value {
	switch {
	case o.kind == opDel:
		return types.Value("DEL " + b64(keys[o.key]))
	case len(o.value) > inlineMax:
		return types.Value("SET " + b64(keys[o.key]) + " a:" + blob.Sum(o.value).String())
	default:
		return types.Value("SET " + b64(keys[o.key]) + " i:" + b64(o.value))
	}
}

// writes returns the unit's Puts and Dels.
func writes(u unit) []op {
	var w []op
	for _, o := range u.ops {
		if o.kind != opGet {
			w = append(w, o)
		}
	}
	return w
}

// coreStepper is the service.Core rung: one Commit per unit's writes (a
// burst commits as the one flush it ideally is), one Get per read.
type coreStepper struct {
	dir  string
	core *service.Core
}

func openCore(_ context.Context, e *env, s stream) (stepper, error) {
	dir, err := e.dir()
	if err != nil {
		return nil, err
	}
	core, err := service.NewCore(service.Config{BlobDir: dir, AuditPath: filepath.Join(dir, "audit.log")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	c := &coreStepper{dir: dir, core: core}
	pre := s.preload()
	for len(pre) > 0 {
		n := min(len(pre), 128)
		if err := c.commit(pre[:n]); err != nil {
			c.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		pre = pre[n:]
	}
	return c, nil
}

func (c *coreStepper) commit(ws []op) error {
	ops := make([]service.Op, len(ws))
	for i, o := range ws {
		ops[i] = service.Op{Op: service.OpPut, Key: keys[o.key], Value: o.value}
		if o.kind == opDel {
			ops[i] = service.Op{Op: service.OpDel, Key: keys[o.key]}
		}
	}
	n, err := c.core.Commit(ops)
	if err == nil && n != len(ops) {
		err = fmt.Errorf("committed %d of %d writes", n, len(ops))
	}
	return err
}

func (c *coreStepper) step(_ int, u unit, _ *tracer) (string, error) {
	if ws := writes(u); len(ws) > 0 {
		return "Core.Commit", c.commit(ws)
	}
	o := &u.ops[0]
	span := "Core.Get.inline"
	if len(o.want) > inlineMax {
		span = "Core.Get.anchored"
	}
	got, err := c.core.Get(keys[o.key])
	if errors.Is(err, service.ErrNotFound) && o.want == nil {
		return span, nil
	}
	return span, checkGet(o.want, got, err)
}

func (c *coreStepper) close() error {
	err := c.core.Close()
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return err
}

// engineStepper is the engine.RunACSLog rung with the configuration the
// layer above would have passed: service.Core's for the svc workloads,
// ReplicateBatchContext's for lib-acs-crash1.
type engineStepper struct {
	cfg    engine.Config
	batch  int
	rounds int             // rounds of a lib call; 0: one round per 32 writes, as Core.Commit
	queues [][]types.Value // lib-acs-crash1's fixed queues
	c      map[string]float64
}

func openServiceEngine(context.Context, *env, stream) (stepper, error) {
	return &engineStepper{
		cfg:   engine.Config{N: 4, T: 1, Inflight: 1},
		batch: 8, c: map[string]float64{},
	}, nil
}

func openLibEngine(_ context.Context, _ *env, s stream) (stepper, error) {
	st := &engineStepper{
		cfg:   engine.Config{N: libN, F: libFaults},
		batch: libBatch, rounds: libRounds, c: map[string]float64{},
	}
	st.queues = libValues(s.(*libStream).queues, libRounds*libBatch)
	return st, nil
}

// libValues converts the first n commands of every proposer queue to the
// engine's value type.
func libValues(queues [][][]byte, n int) [][]types.Value {
	out := make([][]types.Value, len(queues))
	for p, q := range queues {
		for _, cmd := range q[:n] {
			out[p] = append(out[p], types.Value(cmd))
		}
	}
	return out
}

func (s *engineStepper) step(_ int, u unit, _ *tracer) (string, error) {
	const span = "engine.RunACSLog"
	cfg, queues, rounds, want := s.cfg, s.queues, s.rounds, libCommitsPerCall
	if queues == nil {
		ws := writes(u)
		if len(ws) == 0 {
			return span, nil // a read never reaches the engine
		}
		queues = make([][]types.Value, cfg.N)
		for i := range ws {
			queues[i%cfg.N] = append(queues[i%cfg.N], command(&ws[i]))
		}
		perRound := cfg.N * s.batch
		rounds, want = (len(ws)+perRound-1)/perRound, len(ws)
		cfg.Seed = int64(s.c["rounds"])
	} else {
		cfg.Seed = int64(u.call)
	}
	rep, err := engine.RunACSLog(cfg, queues, rounds, s.batch)
	if err != nil {
		return span, err
	}
	if !rep.Converged || rep.Committed != want {
		return span, fmt.Errorf("converged=%t committed=%d, want %d", rep.Converged, rep.Committed, want)
	}
	s.c["rounds"] += float64(rounds)
	s.c["words"] += float64(rep.Engine.Metrics.Honest.Words)
	s.c["ticks"] += float64(rep.Engine.Ticks)
	s.c["cache_hits"] += float64(rep.Engine.Metrics.CacheHits)
	s.c["cache_lookups"] += float64(rep.Engine.Metrics.CacheHits + rep.Engine.Metrics.CacheMisses)
	return span, nil
}

func (s *engineStepper) counters() map[string]float64 { return s.c }
func (s *engineStepper) close() error                 { return nil }

// setupStepper builds what engine.Run constructs on every call before a
// single tick runs: the key ring, the crypto and its threshold schemes.
type setupStepper struct{ params types.Params }

func openSetup(n int) func(context.Context, *env, stream) (stepper, error) {
	return func(context.Context, *env, stream) (stepper, error) {
		p, err := types.NewParams(n)
		return &setupStepper{params: p}, err
	}
}

func engineSetup(p types.Params, seed int) error {
	ring, err := sig.NewHMACRing(p.N, []byte(fmt.Sprintf("engine-%d", seed)))
	if err != nil {
		return err
	}
	c := proto.NewCrypto(p, ring, threshold.ModeCompact, []byte("engine-dealer"))
	c.Threshold(p.SmallQuorum())
	c.Threshold(p.Quorum())
	c.Threshold(p.N)
	return nil
}

func (s *setupStepper) step(id int, u unit, _ *tracer) (string, error) {
	const span = "engine.setup"
	if u.ops != nil && len(writes(u)) == 0 {
		return span, nil
	}
	return span, engineSetup(s.params, id)
}

func (s *setupStepper) close() error { return nil }

// storageStepper makes the per-entry storage calls of service.Core
// directly: blob.Put for an anchored value, kv.Apply and Audit.Append
// for every write, kv.Get and blob.Get for a read.
type storageStepper struct {
	dir     string
	store   *kv.Store
	blobs   *blob.Store
	audit   *service.Audit
	path    string
	entries int
}

func openStorage(_ context.Context, e *env, s stream) (stepper, error) {
	dir, err := e.dir()
	if err != nil {
		return nil, err
	}
	st := &storageStepper{dir: dir, store: kv.NewStore(), path: filepath.Join(dir, "audit.log")}
	if st.blobs, err = blob.Open(dir); err == nil {
		st.audit, err = service.OpenAudit(st.path)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for _, o := range s.preload() {
		if err := st.write(0, &o, nil); err != nil {
			st.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return st, nil
}

// timed runs fn as a sub-span of the current rung.
func timed(tr *tracer, name string, id int, fn func() error) error {
	if tr == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	tr.sub(name, id, start, time.Since(start))
	return err
}

func (s *storageStepper) write(id int, o *op, tr *tracer) error {
	rec := service.AuditEntry{Slot: s.entries, Op: service.OpDel, Key: keys[o.key]}
	if o.kind == opPut {
		rec.Op, rec.Anchor = service.OpPut, blob.Sum(o.value)
		if rec.Anchored = len(o.value) > inlineMax; rec.Anchored {
			if err := timed(tr, "blob.Put", id, func() error {
				_, err := s.blobs.Put(o.value)
				return err
			}); err != nil {
				return err
			}
		}
	}
	cmd := command(o)
	if err := timed(tr, "kv.Apply", id, func() error { return s.store.Apply(cmd) }); err != nil {
		return err
	}
	s.entries++
	return timed(tr, "Audit.Append", id, func() error {
		_, err := s.audit.Append(rec)
		return err
	})
}

func (s *storageStepper) read(id int, o *op, tr *tracer) error {
	var stored string
	var ok bool
	timed(tr, "kv.Get", id, func() error {
		stored, ok = s.store.Get(b64(keys[o.key]))
		return nil
	})
	if !ok || !strings.HasPrefix(stored, "a:") {
		return nil
	}
	ref, err := blob.ParseRef(stored[2:])
	if err != nil {
		return err
	}
	return timed(tr, "blob.Get", id, func() error {
		got, err := s.blobs.Get(ref)
		return checkGet(o.want, got, err)
	})
}

func (s *storageStepper) step(id int, u unit, tr *tracer) (string, error) {
	const span = "storage"
	for i := range u.ops {
		o := &u.ops[i]
		var err error
		if o.kind == opGet {
			err = s.read(id, o, tr)
		} else {
			err = s.write(id, o, tr)
		}
		if err != nil {
			return span, err
		}
	}
	return span, nil
}

func (s *storageStepper) counters() map[string]float64 {
	c := map[string]float64{"entries": float64(s.entries)}
	if fi, err := os.Stat(s.path); err == nil {
		c["audit_bytes"] = float64(fi.Size())
	}
	return c
}

func (s *storageStepper) close() error {
	err := s.audit.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
