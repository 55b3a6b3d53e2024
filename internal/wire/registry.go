package wire

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"adaptiveba/internal/proto"
)

// Body is a payload that frames itself: PutBody appends the payload's
// body to w, and the frame is its Type() then its body. Each codec'd
// payload type implements it beside its decoder, in its package's
// wire.go, so each format lives in one place and encoding cannot fail.
type Body interface {
	proto.Payload
	PutBody(w *Writer)
}

// Codec decodes one payload type.
type Codec struct {
	// Type must match Payload.Type() of the payloads it handles.
	Type string
	// Decode reconstructs a payload from r.
	Decode func(r *Reader) (proto.Payload, error)
}

// Registry maps payload type names to decoders. Protocol packages expose
// a RegisterWire(reg) function; runtimes that decode frames (the TCP
// transport) call them explicitly — no init() magic. Encoding needs no
// registry: a Body frames itself (EncodePayload, AppendPayload, Size).
type Registry struct {
	mu     sync.RWMutex
	codecs map[string]Codec
}

// Errors returned by the registry and the framing functions.
var (
	ErrUnknownType = errors.New("wire: unknown payload type")
	ErrDupType     = errors.New("wire: duplicate payload type")
	ErrNoBody      = errors.New("wire: payload has no body encoding")
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{codecs: make(map[string]Codec)}
}

// Register adds a codec. Registering the same type twice is a programming
// error and is reported.
func (r *Registry) Register(c Codec) error {
	if c.Type == "" || c.Decode == nil {
		return fmt.Errorf("wire: incomplete codec for %q", c.Type)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.codecs[c.Type]; dup {
		return fmt.Errorf("%w: %q", ErrDupType, c.Type)
	}
	r.codecs[c.Type] = c
	return nil
}

// MustRegister registers codecs and panics on conflict (setup-time only).
func (r *Registry) MustRegister(codecs ...Codec) {
	for _, c := range codecs {
		if err := r.Register(c); err != nil {
			panic(err)
		}
	}
}

// Types returns the sorted names of every registered payload type.
func (r *Registry) Types() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.codecs))
	for t := range r.codecs {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) lookup(typ string) (Codec, bool) {
	r.mu.RLock()
	c, ok := r.codecs[typ]
	r.mu.RUnlock()
	return c, ok
}

// DecodePayload parses a frame produced by EncodePayload. The payload
// holds copies of the frame's byte strings, so b may be reused.
func (r *Registry) DecodePayload(b []byte) (proto.Payload, error) {
	return r.decode(NewReader(b))
}

// DecodeView is DecodePayload for a frame that is never written again
// (a types.Value): the payload's byte strings are capped views into b
// (NewViewReader).
func (r *Registry) DecodeView(b []byte) (proto.Payload, error) {
	return r.decode(NewViewReader(b))
}

func (r *Registry) decode(rd *Reader) (proto.Payload, error) {
	typ := rd.String()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	c, ok := r.lookup(typ)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, typ)
	}
	p, err := c.Decode(rd)
	if err != nil {
		return nil, fmt.Errorf("wire: decode %q: %w", typ, err)
	}
	if err := rd.Close(); err != nil {
		return nil, fmt.Errorf("wire: decode %q: %w", typ, err)
	}
	return p, nil
}

// EncodePayload frames p as (type, body) in one exact-size buffer: Size
// measures the frame without allocating, then p writes it. A payload
// that is not a Body has no frame (ErrNoBody).
func EncodePayload(p proto.Payload) ([]byte, error) {
	w := NewWriterSize(Size(p))
	if err := AppendPayload(w, p); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// AppendPayload appends the (type, body) frame of p to w. It is the
// allocation-free sibling of EncodePayload: callers that reuse a pooled
// writer (GetWriter/PutWriter, or a per-connection scratch writer) encode
// into grown capacity without materializing a fresh buffer per message.
func AppendPayload(w *Writer, p proto.Payload) error {
	b, ok := p.(Body)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoBody, p.Type())
	}
	w.PutString(b.Type())
	b.PutBody(w)
	return nil
}

// countingPool recycles CountingWriters so Size stays allocation-free
// and safe under concurrent use.
var countingPool = sync.Pool{
	New: func() any { return NewCountingWriter() },
}

// Size is the byte meter: the framed size of p, exactly
// len(EncodePayload(p)), measured on a pooled counting writer without
// materializing the encoding, so the simulator can charge every send
// with zero allocations. A payload that is not a Body weighs 0.
func Size(p proto.Payload) int {
	b, ok := p.(Body)
	if !ok {
		return 0
	}
	cw := countingPool.Get().(*CountingWriter)
	cw.Reset()
	cw.PutString(b.Type())
	b.PutBody(&cw.Writer)
	n := cw.Size()
	countingPool.Put(cw)
	return n
}
