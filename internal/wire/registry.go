package wire

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"adaptiveba/internal/proto"
)

// Codec encodes and decodes one payload type.
type Codec struct {
	// Type must match Payload.Type() of the payloads it handles.
	Type string
	// Encode appends the payload body to w.
	Encode func(w *Writer, p proto.Payload) error
	// Decode reconstructs a payload from r.
	Decode func(r *Reader) (proto.Payload, error)
}

// Registry maps payload type names to codecs. Protocol packages expose a
// RegisterWire(reg) function; runtimes that need framing (the TCP
// transport) call them explicitly — no init() magic.
type Registry struct {
	mu     sync.RWMutex
	codecs map[string]Codec
}

// Errors returned by the registry.
var (
	ErrUnknownType = errors.New("wire: unknown payload type")
	ErrDupType     = errors.New("wire: duplicate payload type")
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{codecs: make(map[string]Codec)}
}

// Register adds a codec. Registering the same type twice is a programming
// error and is reported.
func (r *Registry) Register(c Codec) error {
	if c.Type == "" || c.Encode == nil || c.Decode == nil {
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

// EncodePayload frames a payload as (type, body) in one exact-size buffer:
// SizeOf measures the frame without allocating, then the codec writes it.
func (r *Registry) EncodePayload(p proto.Payload) ([]byte, error) {
	size, err := r.SizeOf(p)
	if err != nil {
		return nil, err
	}
	w := NewWriterSize(size)
	if err := r.AppendPayload(w, p); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// AppendPayload appends the (type, body) frame of p to w. It is the
// allocation-free sibling of EncodePayload: callers that reuse a pooled
// writer (GetWriter/PutWriter, or a per-connection scratch writer) encode
// into grown capacity without materializing a fresh buffer per message.
// On error the writer may hold a partial frame; callers must Reset before
// reuse.
func (r *Registry) AppendPayload(w *Writer, p proto.Payload) error {
	c, ok := r.lookup(p.Type())
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownType, p.Type())
	}
	w.PutString(p.Type())
	if err := c.Encode(w, p); err != nil {
		return fmt.Errorf("wire: encode %q: %w", p.Type(), err)
	}
	return nil
}

// countingPool recycles CountingWriters so SizeOf stays allocation-free
// and safe under concurrent use.
var countingPool = sync.Pool{
	New: func() any { return NewCountingWriter() },
}

// SizeOf reports the framed encoded size of p — exactly
// len(EncodePayload(p)) — without materializing the encoding: the codec
// runs against a pooled counting writer, so the hot byte-metering path
// (the simulator charges every send) performs zero allocations.
func (r *Registry) SizeOf(p proto.Payload) (int, error) {
	c, ok := r.lookup(p.Type())
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownType, p.Type())
	}
	n, err := sizeOf(c, p)
	if err != nil {
		return 0, fmt.Errorf("wire: size %q: %w", p.Type(), err)
	}
	return n, nil
}

// Size is SizeOf for a byte meter: a payload without a codec, or one its
// codec refuses, weighs 0. Size builds no error, so a payload without a
// codec costs no allocation either.
func (r *Registry) Size(p proto.Payload) int {
	c, ok := r.lookup(p.Type())
	if !ok {
		return 0
	}
	n, err := sizeOf(c, p)
	if err != nil {
		return 0
	}
	return n
}

func (r *Registry) lookup(typ string) (Codec, bool) {
	r.mu.RLock()
	c, ok := r.codecs[typ]
	r.mu.RUnlock()
	return c, ok
}

// sizeOf runs c against a pooled counting writer.
func sizeOf(c Codec, p proto.Payload) (int, error) {
	cw := countingPool.Get().(*CountingWriter)
	cw.Reset()
	cw.PutString(p.Type())
	err := c.Encode(&cw.Writer, p)
	n := cw.Size()
	countingPool.Put(cw)
	return n, err
}

// DecodePayload parses a frame produced by EncodePayload.
func (r *Registry) DecodePayload(b []byte) (proto.Payload, error) {
	rd := NewReader(b)
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
