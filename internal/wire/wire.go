// Package wire provides a small deterministic binary codec used in two
// places: (1) protocol values that embed structure (the BB protocol agrees
// on ⟨v⟩_sender envelopes and idk certificates, which must serialize into
// opaque types.Values), and (2) the TCP transport, which frames whole
// payloads. The format is length-prefixed, big-endian, and has no
// reflection or allocation surprises.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/types"
)

// Errors returned by the codec.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrOversize  = errors.New("wire: length prefix exceeds limit")
	ErrTrailing  = errors.New("wire: trailing bytes")
)

// MaxChunk bounds any single length-prefixed field, protecting decoders
// from hostile length prefixes.
const MaxChunk = 1 << 20

// Writer accumulates an encoded buffer. A Writer in counting mode (see
// CountingWriter) only measures: every Put advances a byte counter and the
// buffer never grows, so codecs written against *Writer can size an
// encoding without materializing it.
type Writer struct {
	buf      []byte
	count    int  // bytes "written" in counting mode
	counting bool // measure only; buf stays nil
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterSize returns an empty writer whose buffer already has size
// bytes of capacity. An encoder that knows its length up front (SizeInt,
// SizeBytes) encodes in exactly one allocation and Bytes() comes back
// with no slack; a growing writer pays four or five regrowths for a
// typical sign base.
func NewWriterSize(size int) *Writer { return &Writer{buf: make([]byte, 0, size)} }

// SizeInt is the encoded size of PutInt, PutUint64 and PutProcess.
const SizeInt = 8

// SizeBytes is the encoded size of an n-byte PutBytes, PutString, PutValue
// or PutSig: the length prefix plus the bytes.
func SizeBytes(n int) int { return SizeInt + n }

// SizeCert is the encoded size of PutCert(c), measured by PutCert itself
// on a counting writer, so it cannot drift from the format and does not
// allocate.
func SizeCert(c *threshold.Cert) int {
	w := Writer{counting: true}
	w.PutCert(c)
	return w.count
}

// Reset clears the writer for reuse, retaining the buffer's capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.count = 0
}

// writerPool recycles Writers for hot encoding paths (the transport's
// send path frames every outgoing message). A recycled writer keeps its
// grown buffer, so steady-state encoding performs no allocations.
var writerPool = sync.Pool{
	New: func() any { return NewWriter() },
}

// GetWriter returns a pooled writer, reset and ready for use. Pair with
// PutWriter once the encoded bytes have been consumed.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter recycles w. The caller must not retain w.Bytes() afterwards:
// the buffer will be overwritten by the next GetWriter user.
func PutWriter(w *Writer) {
	if w == nil || w.counting {
		return // counting writers have their own pool (Registry.SizeOf)
	}
	writerPool.Put(w)
}

// Bytes returns the encoded buffer (nil for a counting writer, which
// never materializes one).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int {
	if w.counting {
		return w.count
	}
	return len(w.buf)
}

// PutUint64 appends a fixed 8-byte big-endian integer.
func (w *Writer) PutUint64(v uint64) {
	if w.counting {
		w.count += 8
		return
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// PutInt appends an int (as uint64; negative values round-trip).
func (w *Writer) PutInt(v int) { w.PutUint64(uint64(int64(v))) }

// PutByte appends one byte.
func (w *Writer) PutByte(b byte) {
	if w.counting {
		w.count++
		return
	}
	w.buf = append(w.buf, b)
}

// PutBool appends a boolean as one byte.
func (w *Writer) PutBool(b bool) {
	if b {
		w.PutByte(1)
	} else {
		w.PutByte(0)
	}
}

// PutBytes appends a length-prefixed byte string.
func (w *Writer) PutBytes(b []byte) {
	w.PutUint64(uint64(len(b)))
	if w.counting {
		w.count += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

// PutString appends a length-prefixed string. The string is appended
// directly (no []byte conversion), so the call never allocates beyond
// buffer growth.
func (w *Writer) PutString(s string) {
	if w.counting {
		w.count += 8 + len(s)
		return
	}
	w.PutUint64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// PutValue appends a protocol value (⊥ encodes as the empty string).
func (w *Writer) PutValue(v types.Value) { w.PutBytes(v) }

// PutSig appends a signature.
func (w *Writer) PutSig(s sig.Signature) { w.PutBytes(s) }

// PutProcess appends a process ID.
func (w *Writer) PutProcess(id types.ProcessID) { w.PutInt(int(id)) }

// PutBitSet appends a bitset (capacity + words).
func (w *Writer) PutBitSet(b *types.BitSet) {
	w.PutInt(b.Cap())
	n := b.NumWords()
	w.PutInt(n)
	for i := 0; i < n; i++ {
		w.PutUint64(b.Word(i))
	}
}

// PutCert appends a threshold certificate, nil-safe.
func (w *Writer) PutCert(c *threshold.Cert) {
	if c == nil {
		w.PutBool(false)
		return
	}
	w.PutBool(true)
	w.PutInt(c.K)
	w.PutBitSet(c.Signers)
	w.PutInt(len(c.Shares))
	for _, s := range c.Shares {
		w.PutSig(s)
	}
	w.PutBytes(c.Tag)
}

// CountingWriter measures encodings without materializing them: it is a
// Writer permanently in counting mode, so any codec written against
// *Writer runs unchanged while every Put costs an integer add — no buffer
// ever grows. Use it (via Registry.SizeOf) on hot byte-metering paths.
type CountingWriter struct {
	Writer
}

// NewCountingWriter returns a writer that counts and never allocates.
func NewCountingWriter() *CountingWriter {
	return &CountingWriter{Writer{counting: true}}
}

// Size returns the number of bytes the encoding would occupy.
func (c *CountingWriter) Size() int { return c.count }

// Reset clears the count for reuse.
func (c *CountingWriter) Reset() { c.count = 0 }

// Reader decodes a buffer produced by Writer. The first error sticks; all
// subsequent reads return zero values. Callers check Err (or Close) once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an encoded buffer.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Close verifies the buffer was fully consumed.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint64 reads a fixed 8-byte integer.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int reads an int written by PutInt.
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Bytes reads a length-prefixed byte string (copied).
func (r *Reader) Bytes() []byte {
	n := r.Uint64()
	if n > MaxChunk {
		r.fail(ErrOversize)
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Value reads a protocol value; empty decodes to ⊥ (nil).
func (r *Reader) Value() types.Value {
	b := r.Bytes()
	if len(b) == 0 {
		return nil
	}
	return types.Value(b)
}

// Sig reads a signature; empty decodes to nil.
func (r *Reader) Sig() sig.Signature {
	b := r.Bytes()
	if len(b) == 0 {
		return nil
	}
	return sig.Signature(b)
}

// Process reads a process ID.
func (r *Reader) Process() types.ProcessID { return types.ProcessID(r.Int()) }

// BitSet reads a bitset.
func (r *Reader) BitSet() *types.BitSet {
	capacity := r.Int()
	nwords := r.Int()
	if r.err != nil {
		return nil
	}
	if capacity < 0 || nwords < 0 || nwords > MaxChunk/8 {
		r.fail(ErrOversize)
		return nil
	}
	words := make([]uint64, nwords)
	for i := range words {
		words[i] = r.Uint64()
	}
	if r.err != nil {
		return nil
	}
	b, err := types.BitSetFromWords(capacity, words)
	if err != nil {
		r.fail(err)
		return nil
	}
	return b
}

// Cert reads a threshold certificate written by PutCert (may be nil).
func (r *Reader) Cert() *threshold.Cert {
	if !r.Bool() {
		return nil
	}
	c := &threshold.Cert{K: r.Int()}
	c.Signers = r.BitSet()
	nshares := r.Int()
	if r.err != nil {
		return nil
	}
	if nshares < 0 || nshares > MaxChunk/8 {
		r.fail(ErrOversize)
		return nil
	}
	if nshares > 0 {
		c.Shares = make([]sig.Signature, nshares)
		for i := range c.Shares {
			c.Shares[i] = r.Sig()
		}
	}
	c.Tag = r.Bytes()
	if len(c.Tag) == 0 {
		c.Tag = nil
	}
	if r.err != nil {
		return nil
	}
	if c.K < 0 || c.K > math.MaxInt32 {
		r.fail(fmt.Errorf("wire: implausible certificate threshold %d", c.K))
		return nil
	}
	return c
}
