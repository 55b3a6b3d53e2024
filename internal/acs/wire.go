// Wire encodings for the ACS layer. Two payload types cross process
// boundaries:
//
//   - acs/batch: a proposer's batch of requests. The batch rides inside
//     the BB dissemination as the broadcast value, so its bytes are fully
//     adversary-controlled — a Byzantine proposer can commit any frame it
//     likes. Decoding therefore never trusts a length prefix: counts are
//     validated against wire.MaxChunk before any allocation.
//   - acs/result: the round's committed subset (bitmap of winning
//     proposers plus their batches in ID order). It is the ACS machine's
//     canonical Output, i.e. exactly what the replicated-log driver
//     decodes and what the sim's cross-process agreement check compares
//     byte-for-byte.
//
// Both are registered in the shared payload registry (see
// protocols.Registry) so framing, sizing (Registry.SizeOf), and
// the wire corpus/fuzz suite cover them like every other message type.
package acs

import (
	"fmt"

	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// Batch is one proposer's batch of requests for a round.
type Batch struct {
	// Cmds are the batched requests, in proposal order.
	Cmds []types.Value
}

// Type implements proto.Payload.
func (Batch) Type() string { return "acs/batch" }

// Words implements proto.Payload: a batch occupies one word per request
// (each request is one value), so per-request word cost amortizes as the
// batch grows while the envelope cost stays that of a single value.
func (b Batch) Words() int {
	if len(b.Cmds) == 0 {
		return 1
	}
	return len(b.Cmds)
}

// Result is the committed subset of one ACS round.
type Result struct {
	// Committed marks the proposers whose batches made the subset.
	Committed *types.BitSet
	// Batches are the winning batches in ascending proposer-ID order
	// (one per set bit of Committed), each an EncodeBatch frame.
	Batches []types.Value
}

// Type implements proto.Payload.
func (Result) Type() string { return "acs/result" }

// Words implements proto.Payload.
func (r Result) Words() int {
	if len(r.Batches) == 0 {
		return 1
	}
	return len(r.Batches)
}

// Requests counts the individual requests across the committed batches.
// Malformed batches (possible only for Results assembled from hostile
// bytes, never for ones built by the machine) count zero.
func (r *Result) Requests() int {
	total := 0
	for _, b := range r.Batches {
		if batch, err := DecodeBatch(b); err == nil {
			total += len(batch.Cmds)
		}
	}
	return total
}

// maxBatchCmds bounds the request count a single batch frame may claim.
// Consistent with the other decoders' wire.MaxChunk/8 list bound: a
// hostile count cannot force a large up-front allocation, because every
// request still has to materialize at least one length byte within the
// frame that was actually read (itself bounded by the transport's
// maxFrame).
const maxBatchCmds = wire.MaxChunk / 8

// RegisterWire registers this package's payload codecs.
func RegisterWire(reg *wire.Registry) {
	reg.MustRegister(
		wire.Codec{
			Type: Batch{}.Type(),
			Encode: func(w *wire.Writer, p proto.Payload) error {
				m, ok := p.(Batch)
				if !ok {
					return badType(p)
				}
				w.PutInt(len(m.Cmds))
				for _, c := range m.Cmds {
					w.PutValue(c)
				}
				return nil
			},
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				n := r.Int()
				if err := r.Err(); err != nil {
					return nil, err
				}
				if n < 0 || n > maxBatchCmds {
					return nil, fmt.Errorf("acs: implausible batch length %d", n)
				}
				b := Batch{}
				if n > 0 {
					b.Cmds = make([]types.Value, 0, clampCap(n))
				}
				for i := 0; i < n; i++ {
					b.Cmds = append(b.Cmds, r.Value())
					if err := r.Err(); err != nil {
						return nil, err
					}
				}
				return b, nil
			},
		},
		wire.Codec{
			Type: Result{}.Type(),
			Encode: func(w *wire.Writer, p proto.Payload) error {
				m, ok := p.(Result)
				if !ok {
					return badType(p)
				}
				w.PutBitSet(m.Committed)
				w.PutInt(len(m.Batches))
				for _, b := range m.Batches {
					w.PutValue(b)
				}
				return nil
			},
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				committed := r.BitSet()
				n := r.Int()
				if err := r.Err(); err != nil {
					return nil, err
				}
				if n < 0 || n > maxBatchCmds {
					return nil, fmt.Errorf("acs: implausible subset size %d", n)
				}
				res := Result{Committed: committed}
				if n > 0 {
					res.Batches = make([]types.Value, 0, clampCap(n))
				}
				for i := 0; i < n; i++ {
					res.Batches = append(res.Batches, r.Value())
					if err := r.Err(); err != nil {
						return nil, err
					}
				}
				return res, nil
			},
		},
	)
}

// clampCap keeps a hostile element count from pre-allocating more than a
// small constant number of slots; append grows the slice only as far as
// the frame's real bytes allow.
func clampCap(n int) int {
	const lim = 64
	if n > lim {
		return lim
	}
	return n
}

// selfReg frames this package's own payloads for value-level encoding.
var selfReg = func() *wire.Registry {
	r := wire.NewRegistry()
	RegisterWire(r)
	return r
}()

// EncodeBatch frames cmds as an acs/batch value — the bytes a proposer
// hands to its BB instance. An empty batch encodes non-⊥, so an honest
// proposer with nothing to propose still wins its vote (and contributes
// zero requests) instead of being mistaken for a faulty one.
func EncodeBatch(cmds []types.Value) types.Value {
	buf, err := selfReg.EncodePayload(Batch{Cmds: cmds})
	if err != nil {
		panic("acs: batch encoding cannot fail: " + err.Error())
	}
	return types.Value(buf)
}

// DecodeBatch parses an EncodeBatch frame. Hostile frames (a Byzantine
// proposer controls these bytes end to end) fail cleanly without large
// allocations. The commands are capped views into v, which stays
// immutable: a command kept past v's use must be cloned.
func DecodeBatch(v types.Value) (*Batch, error) {
	p, err := selfReg.DecodeView(v)
	if err != nil {
		return nil, fmt.Errorf("acs: decode batch: %w", err)
	}
	b, ok := p.(Batch)
	if !ok {
		return nil, fmt.Errorf("acs: decode batch: unexpected payload type %q", p.Type())
	}
	return &b, nil
}

// EncodeResult frames the round's committed subset as an acs/result
// value — the ACS machine's canonical Output.
func EncodeResult(res *Result) types.Value {
	buf, err := selfReg.EncodePayload(*res)
	if err != nil {
		panic("acs: result encoding cannot fail: " + err.Error())
	}
	return types.Value(buf)
}

// DecodeResult parses an EncodeResult frame. Like DecodeBatch's
// commands, the batches are capped views into v.
func DecodeResult(v types.Value) (*Result, error) {
	p, err := selfReg.DecodeView(v)
	if err != nil {
		return nil, fmt.Errorf("acs: decode result: %w", err)
	}
	r, ok := p.(Result)
	if !ok {
		return nil, fmt.Errorf("acs: decode result: unexpected payload type %q", p.Type())
	}
	return &r, nil
}

func badType(p proto.Payload) error {
	return fmt.Errorf("acs: unexpected payload %T", p)
}
