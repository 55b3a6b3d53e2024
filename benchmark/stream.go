package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
)

// The op streams. A stream is a pure function of its seed: the program
// under test only ever sees the generated requests. Every stream keeps a
// model of the state its ops produce, so each Get carries the value the
// service must return and the final read-back knows every key's fate.

const (
	numKeys     = 1024
	inlineBytes = 64   // below the service's 256 B inline threshold
	blob4k      = 4096 // anchored through blob.Put on svc-put-burst32
	blob8k      = 8192 // anchored values of the odd keys on svc-read-mostly
	burstOps    = 32   // one full ACS round at defaults (4 proposers × batch 8), ≤ the 64-slot outbox
	delStride   = 16   // svc-put-serial: every 16th op is a Del
	blobStride  = 16   // svc-put-burst32: every 16th value is 4 KiB
	putStride   = 20   // svc-read-mostly: every 20th op is a Put

	libN      = 9
	libFaults = 1
	libBatch  = 16
	libRounds = 4
	// One proposer is crashed, so a call commits the other eight
	// proposers' batches.
	libCommitsPerCall = (libN - libFaults) * libBatch * libRounds
)

type opKind byte

const (
	opPut opKind = iota + 1
	opDel
	opGet
)

// op is one client request. For a Get, want is the value the model says
// the service must return (nil: the key must be absent).
type op struct {
	kind  opKind
	key   int
	value []byte
	want  []byte
}

// unit is the work between two latency samples: one request, one burst
// of requests, or one library call.
type unit struct {
	ops  []op
	call int // lib-acs-crash1: the call index, also the call's seed
}

// keyBytes is the wire form of key index k.
func keyBytes(k int) []byte { return []byte(fmt.Sprintf("key-%04d", k)) }

// stream produces the units of one workload in order.
type stream interface {
	// preload returns the writes that fill the store during set-up.
	preload() []op
	// next returns unit i; units must be requested in order, after
	// preload.
	next(i int) unit
	// state returns the model after the units generated so far and how
	// many writes (preload included) produced it.
	state() (m model, writes int)
}

// model is the expected key→value state (a missing key is absent).
type model map[int][]byte

// svcStream is the common part of the three service streams.
type svcStream struct {
	rng    *rand.Rand
	model  model
	writes int
	buf    [1]op
}

func (s *svcStream) state() (model, int) { return s.model, s.writes }

// preload is empty unless a stream says otherwise.
func (s *svcStream) preload() []op { return nil }

// preloadAll writes every key once, size(key) bytes each.
func (s *svcStream) preloadAll(size func(key int) int) []op {
	ops := make([]op, numKeys)
	for k := range ops {
		ops[k] = s.put(k, size(k))
	}
	return ops
}

func newSvcStream(seed int64) svcStream {
	return svcStream{rng: rand.New(rand.NewSource(seed)), model: model{}}
}

func (s *svcStream) fresh(n int) []byte {
	b := make([]byte, n)
	s.rng.Read(b)
	return b
}

// put emits a Put and records it in the model.
func (s *svcStream) put(key, size int) op {
	v := s.fresh(size)
	s.model[key] = v
	s.writes++
	return op{kind: opPut, key: key, value: v}
}

// del emits a Del and records it in the model.
func (s *svcStream) del(key int) op {
	delete(s.model, key)
	s.writes++
	return op{kind: opDel, key: key}
}

// serialStream is svc-put-serial: 15 of every 16 ops a Put of a 64 B
// inline value, every 16th a Del, keys uniform.
type serialStream struct{ svcStream }

func (s *serialStream) preload() []op {
	return s.preloadAll(func(int) int { return inlineBytes })
}

func (s *serialStream) next(i int) unit {
	key := s.rng.Intn(numKeys)
	if i%delStride == delStride-1 {
		s.buf[0] = s.del(key)
	} else {
		s.buf[0] = s.put(key, inlineBytes)
	}
	return unit{ops: s.buf[:]}
}

// readMostlyStream is svc-read-mostly: a fixed stride of one Put per 20
// ops (a per-op coin flip would make the put count, and with it the
// rate, vary from window to window), the rest Gets; even keys hold 64 B
// inline values and odd keys 8 KiB anchored ones, and a Put keeps its
// key's size class.
type readMostlyStream struct{ svcStream }

func sizeClass(key int) int {
	if key%2 == 1 {
		return blob8k
	}
	return inlineBytes
}

func (s *readMostlyStream) preload() []op { return s.preloadAll(sizeClass) }

func (s *readMostlyStream) next(i int) unit {
	key := s.rng.Intn(numKeys)
	if i%putStride == putStride-1 {
		s.buf[0] = s.put(key, sizeClass(key))
	} else {
		s.buf[0] = op{kind: opGet, key: key, want: s.model[key]}
	}
	return unit{ops: s.buf[:]}
}

// burstStream is svc-put-burst32: 32 Puts per unit. The service spreads
// a flush round-robin over proposers and flattens the log in (round,
// proposer, position) order, so two writes to one key inside a flush
// can commit in reverse arrival order: keys inside a burst are distinct
// to keep the final state a function of the seed.
type burstStream struct {
	svcStream
	ops  [burstOps]op
	seen map[int]bool
}

func (s *burstStream) next(i int) unit {
	for k := range s.seen {
		delete(s.seen, k)
	}
	for j := range s.ops {
		key := s.rng.Intn(numKeys)
		for s.seen[key] {
			key = s.rng.Intn(numKeys)
		}
		s.seen[key] = true
		size := inlineBytes
		if (i*burstOps+j)%blobStride == blobStride-1 {
			size = blob4k
		}
		s.ops[j] = s.put(key, size)
	}
	return unit{ops: s.ops[:]}
}

// libStream is lib-acs-crash1: every call replicates the same fixed
// queues; only the call's seed (its index) changes.
type libStream struct{ queues [][][]byte }

func (*libStream) preload() []op       { return nil }
func (*libStream) next(i int) unit     { return unit{call: i} }
func (*libStream) state() (model, int) { return nil, 0 }

// libQueues builds the nine proposer queues of one call: libRounds ×
// libBatch fixed "SET k v" commands each.
func libQueues(seed int64) [][][]byte {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][][]byte, libN)
	for p := range qs {
		for c := 0; c < libRounds*libBatch; c++ {
			qs[p] = append(qs[p], []byte(fmt.Sprintf("SET p%dk%d v%d", p, rng.Intn(numKeys), rng.Int63())))
		}
	}
	return qs
}

// streamDigest hashes a stream's preload and first n units; the tests
// use it to pin that a seed fixes the whole op stream.
func streamDigest(s stream, n int) string {
	h := sha256.New()
	var num [8]byte
	writeOps := func(ops []op) {
		for _, o := range ops {
			h.Write([]byte{byte(o.kind)})
			binary.BigEndian.PutUint64(num[:], uint64(o.key))
			h.Write(num[:])
			h.Write(o.value)
			h.Write(o.want)
		}
	}
	writeOps(s.preload())
	if l, ok := s.(*libStream); ok {
		for _, q := range l.queues {
			for _, cmd := range q {
				h.Write(cmd)
			}
		}
	}
	for i := 0; i < n; i++ {
		u := s.next(i)
		binary.BigEndian.PutUint64(num[:], uint64(u.call))
		h.Write(num[:])
		writeOps(u.ops)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
