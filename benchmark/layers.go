package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"adaptiveba"
	"adaptiveba/internal/acs"
	"adaptiveba/internal/blob"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/explore"
	"adaptiveba/internal/kv"
	"adaptiveba/internal/service"
	"adaptiveba/internal/transport"
	"adaptiveba/internal/types"
)

// The fixed layer suite: the per-layer metrics that no workload's ladder
// yields, each a small fixed amount of work on fixed inputs, timed by
// the same window-quartile rule. Counts are exact.

// perCall times windows × iters calls of fn and returns the favourable
// quartile over windows of the window's mean seconds per call. Calls
// too short to time singly are timed a window at a time.
func perCall(windows, iters int, fn func() error) (float64, error) {
	per := make([]float64, windows)
	for w := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per[w] = time.Since(t0).Seconds() / float64(iters)
	}
	return favourable(per, false), nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type suite struct {
	ctx   context.Context
	e     *env
	m     map[string]metric
	timed []string  // the metrics that are timings
	cal   []float64 // reference-kernel samples, one around every section
	err   error
}

// time records one timed metric; scale converts seconds to the unit.
func (s *suite) time(name, unit string, scale float64, windows, iters int, fn func() error) {
	if s.err != nil {
		return
	}
	v, err := perCall(windows, iters, fn)
	if err != nil {
		s.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	s.m[name] = metric{v * scale, unit}
	s.timed = append(s.timed, name)
}

func (s *suite) count(name, unit string, v float64) { s.m[name] = metric{v, unit} }

// try runs one section unless an earlier one failed.
func (s *suite) try(section string, fn func() error) {
	s.cal = append(s.cal, calibrate())
	if s.err == nil {
		if err := fn(); err != nil {
			s.err = fmt.Errorf("%s: %w", section, err)
		}
	}
}

func layerSuite(ctx context.Context, e *env, m map[string]metric) error {
	s := &suite{ctx: ctx, e: e, m: m}
	s.try("codec", s.codec)
	s.try("core", s.core)
	s.try("storage", s.storage)
	s.try("acs", s.acs)
	s.try("core protocols", s.protocols)
	s.try("crypto", s.crypto)
	s.cal = append(s.cal, calibrate())
	speed := hostSpeed(s.cal)
	for _, name := range s.timed {
		m[name] = metric{m[name].Value * speed, m[name].Unit}
	}
	return s.err
}

// codec: the request/response codecs and one framed round trip over
// loopback, the fixed costs of a read.
func (s *suite) codec() error {
	req := &service.Request{Client: 1, Seq: 7, Op: service.ReqGet, Key: keys[0]}
	resp := &service.Response{Seq: 7, Status: service.StatusOK, Value: make([]byte, inlineBytes)}
	s.time("service.codec_us", "us", 1e6, numWindows, 2000, func() error {
		if _, err := service.DecodeRequest(service.EncodeRequest(req)); err != nil {
			return err
		}
		_, err := service.DecodeResponse(service.EncodeResponse(resp))
		return err
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		var fr transport.FrameReader
		for {
			kind, body, err := fr.Read(conn)
			if err != nil {
				echoed <- nil // the dialer closed: done
				return
			}
			if err := transport.WriteFrame(conn, kind, body); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	var fr transport.FrameReader
	body := service.EncodeRequest(req)
	s.time("transport.frame_us", "us", 1e6, numWindows, 500, func() error {
		if err := transport.WriteFrame(conn, service.FrameRequest, body); err != nil {
			return err
		}
		conn.SetReadDeadline(time.Now().Add(clientTimeout))
		_, _, err := fr.Read(conn)
		return err
	})
	conn.Close()
	return <-echoed
}

// core: the service.Core calls no workload makes once per unit — a full
// MaxBatch flush, the snapshot that fires every 1024 commits, and the
// tamper walk.
func (s *suite) core() error {
	dir, err := s.e.dir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := service.NewCore(service.Config{BlobDir: dir, AuditPath: filepath.Join(dir, "audit.log"), SnapshotEvery: -1})
	if err != nil {
		return err
	}
	defer c.Close()
	st := &serialStream{newSvcStream(1)}
	batch := make([]service.Op, 128)
	s.time("service.core.commit_ms.b128", "ms", 1e3, 8, 1, func() error {
		for i := range batch {
			o := st.put(st.writes%numKeys, inlineBytes)
			batch[i] = service.Op{Op: service.OpPut, Key: keys[o.key], Value: o.value}
		}
		_, err := c.Commit(batch)
		return err
	})
	s.time("service.core.snapshot_ms", "ms", 1e3, numWindows, 4, c.SnapshotNow)
	var entries int
	s.time("service.core.verify_ms_per_kentry", "ms", 1e3, 8, 1, func() error {
		rep, err := c.Verify()
		if err == nil {
			entries = rep.Entries
		}
		return err
	})
	if s.err == nil {
		v := s.m["service.core.verify_ms_per_kentry"]
		s.m["service.core.verify_ms_per_kentry"] = metric{v.Value * 1000 / float64(entries), v.Unit}
	}
	return nil
}

// storage: what the ladders do not cover — a duplicate blob put, the kv
// digest and snapshot, and the two real-disk diagnostics (tmpfs hides
// fsync; these show what it costs on the sandbox disk).
func (s *suite) storage() error {
	dir, err := s.e.dir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	blobs, err := blob.Open(dir)
	if err != nil {
		return err
	}
	st := newSvcStream(1)
	dup := st.fresh(blob4k)
	if _, err := blobs.Put(dup); err != nil {
		return err
	}
	s.time("blob.put_dup_4k_us", "us", 1e6, numWindows, 50, func() error {
		_, err := blobs.Put(dup)
		return err
	})

	store := kv.NewStore()
	for k := range keys {
		o := st.put(k, inlineBytes)
		if err := store.Apply(command(&o)); err != nil {
			return err
		}
	}
	s.time("kv.hash_1024_us", "us", 1e6, numWindows, 4, func() error { store.Hash(); return nil })
	s.time("kv.snapshot_1024_us", "us", 1e6, numWindows, 4, func() error { store.EncodeSnapshot(); return nil })

	disk, err := os.MkdirTemp(s.e.out, "disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(disk)
	diskBlobs, err := blob.Open(disk)
	if err != nil {
		return err
	}
	audit, err := service.OpenAudit(filepath.Join(disk, "audit.log"))
	if err != nil {
		return err
	}
	defer audit.Close()
	s.time("blob.put_4k_disk_us", "us", 1e6, 8, 4, func() error {
		_, err := diskBlobs.Put(st.fresh(blob4k))
		return err
	})
	s.time("service.audit.append_disk_us", "us", 1e6, 8, 8, func() error {
		_, err := audit.Append(service.AuditEntry{Op: service.OpPut, Key: keys[0], Anchor: blob.Sum(dup)})
		return err
	})
	return nil
}

// acs: one ACS round at n=9 as the fault count grows — the adaptive
// curve of the layer lib-acs-crash1 runs — and the batch codecs.
func (s *suite) acs() error {
	queues := libValues(libQueues(1), libBatch)
	for _, f := range []int{0, 1, 2, 4} {
		var rep *engine.ACSLogReport
		round := func() (err error) {
			rep, err = engine.RunACSLog(engine.Config{N: libN, F: f}, queues, 1, libBatch)
			if err == nil && !rep.Converged {
				err = fmt.Errorf("n=%d f=%d did not converge", libN, f)
			}
			return err
		}
		if f == 2 {
			if err := round(); err != nil {
				return err
			}
		} else {
			s.time(fmt.Sprintf("acs.round_ms.n9f%d", f), "ms", 1e3, 8, 1, round)
		}
		if s.err != nil {
			return nil
		}
		s.count(fmt.Sprintf("acs.words_per_round.n9f%d", f), "count", float64(rep.Engine.Metrics.Honest.Words))
		if f == 1 {
			sess := rep.Engine.Sessions[0]
			var fallback int64
			for layer, st := range sess.ByLayer {
				if strings.Contains(layer+"/", "/fb/") {
					fallback += st.Words
				}
			}
			s.count("acs.fallback_procs.n9f1", "count", float64(sess.FallbackProcs))
			s.count("fallback.words_share.n9f1", "ratio", ratio(float64(fallback), float64(sess.Words)))
		}
	}
	s.time("acs.codec_us", "us", 1e6, numWindows, 500, func() error {
		b, err := acs.DecodeBatch(acs.EncodeBatch(queues[0]))
		if err == nil && len(b.Cmds) != libBatch {
			err = fmt.Errorf("decoded %d commands", len(b.Cmds))
		}
		return err
	})
	return nil
}

// protocols: the paper's O(n(f+1)) word curve at n=33 through the public
// context entry points; exact counts, one run each.
func (s *suite) protocols() error {
	const n = 33
	value := []byte("v")
	inputs := make([][]byte, n)
	bits := make([]bool, n)
	for i := range inputs {
		inputs[i], bits[i] = value, true
	}
	for _, f := range []int{0, 1, 8, 16} {
		res, err := adaptiveba.BroadcastContext(s.ctx, n, value, adaptiveba.WithFaults(f))
		if err != nil {
			return err
		}
		s.count(fmt.Sprintf("core.bb.words.n33f%d", f), "count", float64(res.Words))
		if f == 8 {
			s.count("core.bb.envelope_frac.n33f8", "ratio", float64(res.Words)/float64(explore.Envelope(n, (n-1)/2, f)))
		}
	}
	for _, f := range []int{0, 8} {
		res, err := adaptiveba.WeakAgreeContext(s.ctx, n, inputs, nil, adaptiveba.WithFaults(f))
		if err != nil {
			return err
		}
		s.count(fmt.Sprintf("core.wba.words.n33f%d", f), "count", float64(res.Words))
	}
	for _, f := range []int{0, 1} {
		res, err := adaptiveba.StrongAgreeBinaryContext(s.ctx, n, bits, adaptiveba.WithFaults(f))
		if err != nil {
			return err
		}
		s.count(fmt.Sprintf("core.strongba.words.n33f%d", f), "count", float64(res.Words))
	}
	return nil
}

// crypto: the primitives under every certificate at n=9.
func (s *suite) crypto() error {
	p, err := types.NewParams(libN)
	if err != nil {
		return err
	}
	ring, err := sig.NewHMACRing(libN, []byte("engine-1"))
	if err != nil {
		return err
	}
	msg := []byte("adaptiveba/benchmark/message")
	sg, err := ring.Sign(0, msg)
	if err != nil {
		return err
	}
	s.time("crypto.sig.hmac_sign_ns", "ns", 1e9, numWindows, 5000, func() error {
		_, err := ring.Sign(0, msg)
		return err
	})
	s.time("crypto.sig.hmac_verify_ns", "ns", 1e9, numWindows, 5000, func() error {
		if !ring.Verify(0, msg, sg) {
			return fmt.Errorf("signature rejected")
		}
		return nil
	})
	th, err := threshold.New(ring, p.Quorum(), threshold.ModeCompact, []byte("engine-dealer"))
	if err != nil {
		return err
	}
	shares := make([]threshold.Share, p.Quorum())
	for i := range shares {
		if shares[i], err = th.SignShare(types.ProcessID(i), msg); err != nil {
			return err
		}
	}
	s.time("crypto.threshold.sign_share_ns", "ns", 1e9, numWindows, 5000, func() error {
		_, err := th.SignShare(0, msg)
		return err
	})
	cert, err := th.Combine(msg, shares)
	if err != nil {
		return err
	}
	s.time("crypto.threshold.combine_us.n9", "us", 1e6, numWindows, 500, func() error {
		_, err := th.Combine(msg, shares)
		return err
	})
	s.time("crypto.threshold.verify_us.n9", "us", 1e6, numWindows, 500, func() error {
		if !th.Verify(msg, cert) {
			return fmt.Errorf("certificate rejected")
		}
		return nil
	})
	return nil
}
