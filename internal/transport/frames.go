package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// This file holds the transport's framing, which the mesh and every
// other subsystem speaking the same wire format over its own connections
// share — concretely internal/service, whose client/server path reuses
// the [len u32][kind u8][body] frame and the hostile-length bounds
// without owning a full mesh Node.

// ServiceFrameBase is the first frame kind available to non-mesh users.
// Kinds below it are reserved for the mesh handshake and data plane
// (hello/ready/msg), so a service speaking over the same framing can
// never collide with them.
const ServiceFrameBase byte = 16

// MaxFrame bounds a single frame read. It is sized consistently with
// wire.MaxChunk (1 MiB per length-prefixed field): a mesh message frame
// is a session path plus a (type, body) payload frame, so 4 MiB leaves
// room for a session, a type name, and two maximal fields. FrameReader
// commits memory incrementally (see readChunk), so a hostile length
// prefix near this bound still cannot force a large allocation up front.
const MaxFrame = 4 << 20

// readChunk bounds how far a frame reader's buffer grows ahead of bytes
// that have actually arrived. Oversize prefixes fail before any
// allocation; truncated frames allocate at most ~2x the bytes received.
const readChunk = 64 << 10

// frameBufPool recycles the scratch buffers behind WriteFrame, so the
// synchronous framing path (hello/ready, service frames) stops
// allocating per frame.
var frameBufPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// FrameHeader is the size of a frame's header: a big-endian u32 length
// that counts the kind byte and the body, then the kind byte.
const FrameHeader = 5

// AppendFrame appends one [len u32][kind][body] frame to buf: the one
// spelling of the frame format, which the mesh and the service speak.
func AppendFrame(buf []byte, kind byte, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)+1))
	buf = append(buf, kind)
	return append(buf, body...)
}

// WriteFrame emits one frame in a single write from a pooled buffer.
func WriteFrame(w io.Writer, kind byte, body []byte) error {
	bp := frameBufPool.Get().(*[]byte)
	*bp = AppendFrame((*bp)[:0], kind, body)
	_, err := w.Write(*bp)
	frameBufPool.Put(bp)
	return err
}

// FrameReader reads frames written by WriteFrame from one connection,
// reusing a single grow-only buffer across frames. The length prefix is
// read into a struct field rather than a local so that passing it to
// io.ReadFull does not heap-allocate per frame. The zero value is ready
// to use.
type FrameReader struct {
	buf    []byte
	lenBuf [4]byte
}

// Read returns the next frame's kind and body. The body aliases the
// reader's internal buffer and is valid only until the next Read call.
//
// Allocation is bounded against hostile length prefixes consistently
// with wire.MaxChunk's philosophy: prefixes beyond MaxFrame fail before
// any allocation, and in-range frames commit buffer memory in readChunk
// steps (doubling, capped at the frame size), so a truncated or
// slow-trickling frame can pin at most about twice the bytes actually
// received.
func (fr *FrameReader) Read(r io.Reader) (byte, []byte, error) {
	if _, err := io.ReadFull(r, fr.lenBuf[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(fr.lenBuf[:])
	if size == 0 || size > MaxFrame {
		return 0, nil, fmt.Errorf("transport: bad frame size %d", size)
	}
	n := int(size)
	buf := fr.buf[:0]
	for got := 0; got < n; {
		step := n - got
		if step > readChunk {
			step = readChunk
		}
		need := got + step
		if cap(buf) < need {
			newCap := 2 * cap(buf)
			if newCap < need {
				newCap = need
			}
			if newCap > n {
				newCap = n
			}
			grown := make([]byte, got, newCap)
			copy(grown, buf[:got])
			buf = grown
		}
		buf = buf[:need]
		if _, err := io.ReadFull(r, buf[got:need]); err != nil {
			fr.buf = buf[:0]
			return 0, nil, err
		}
		got = need
	}
	fr.buf = buf
	return buf[0], buf[1:], nil
}

// FrameBuffered reports whether br already holds the whole next frame,
// looking only at buffered bytes: its length prefix, then that many more.
func FrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	prefix, _ := br.Peek(4)
	return br.Buffered()-4 >= int(binary.BigEndian.Uint32(prefix))
}
