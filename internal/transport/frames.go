package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"adaptiveba/internal/types"
)

// This file holds the transport's framing, which the mesh and every
// other subsystem speaking the same wire format over its own connections
// share, and exports the chaos-verdict primitives — concretely for
// internal/service, whose client/server path reuses the
// [len u32][kind u8][body] frame, the hostile-length bounds, and the
// seeded chaos schedule without owning a full mesh Node.

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

// WriteFrame emits one [len u32][kind][body] frame in a single write
// from a pooled buffer — the same frame format the mesh speaks.
func WriteFrame(w io.Writer, kind byte, body []byte) error {
	bp := frameBufPool.Get().(*[]byte)
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = kind
	buf := append((*bp)[:0], hdr[:]...)
	buf = append(buf, body...)
	*bp = buf
	_, err := w.Write(buf)
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

// ChaosVerdicts exposes the chaos schedule's pure decision core to
// non-mesh paths. Where the mesh's chaos layer both decides and applies
// (deferring frames into peer outboxes), a ChaosVerdicts user asks for
// the verdict and handles the drop or delay itself — the service's
// server, for instance, drops or defers inbound client request frames.
// Determinism matches the mesh layer: the verdict sequence is a pure
// function of the seed.
type ChaosVerdicts struct {
	c *chaos
}

// NewChaosVerdicts builds a verdict stream for one endpoint. self/n give
// the endpoint's identity and population (used by partition parity and
// flap victim selection); tick is the interval MaxDelay defaults
// against.
func NewChaosVerdicts(cfg ChaosConfig, self types.ProcessID, n int, tick time.Duration) *ChaosVerdicts {
	return &ChaosVerdicts{c: newChaos(cfg, self, n, tick, nil)}
}

// Tick advances the chaos clock; partition and flap windows are
// tick-indexed.
func (v *ChaosVerdicts) Tick(now types.Tick) { v.c.tick(now) }

// Verdict decides one frame's fate: deliver (false, 0), drop (true, 0),
// or deliver after the returned delay.
func (v *ChaosVerdicts) Verdict(to types.ProcessID) (drop bool, delay time.Duration) {
	return v.c.verdict(to)
}
