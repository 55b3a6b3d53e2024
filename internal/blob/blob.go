// Package blob is a content-addressed local blob store: the off-chain
// corner of the triangle architecture. Payloads live on the local disk
// keyed by their SHA-256 digest; agreement commits only the 32-byte
// anchor (plus a hash-chained audit entry, see internal/service), so the
// per-request word cost through the protocol stack is a constant number
// of digest words regardless of payload size.
//
// Durability follows the write-then-rename discipline: a payload is
// written to a temp file, fsync'd, renamed to its content address, and
// the directory entry fsync'd, so a crash never leaves a partially
// written blob under a valid key nor loses an acknowledged one.
// Reads re-hash the payload before returning it — a flipped byte on disk
// surfaces as ErrTampered, never as silently corrupt data.
package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
)

// Ref is a content address: the SHA-256 digest of the payload.
type Ref [32]byte

// String returns the hex form of the ref (also its on-disk file name).
func (r Ref) String() string { return hex.EncodeToString(r[:]) }

// ParseRef parses the hex form produced by Ref.String, from a string or
// straight from the bytes of a committed command, without allocating.
func ParseRef[S ~string | ~[]byte](s S) (Ref, error) {
	var r Ref
	var h [2 * len(r)]byte
	if len(s) != len(h) {
		return r, fmt.Errorf("blob: bad ref %q", s)
	}
	copy(h[:], s)
	if _, err := hex.Decode(r[:], h[:]); err != nil {
		return Ref{}, fmt.Errorf("blob: bad ref %q", s)
	}
	return r, nil
}

// Compare orders refs by their bytes, which is also the order of their
// hex forms.
func (r Ref) Compare(o Ref) int { return bytes.Compare(r[:], o[:]) }

// Sum returns the content address of a payload without storing it.
func Sum(data []byte) Ref { return Ref(sha256.Sum256(data)) }

// MaxSize bounds a stored payload: the largest value the service accepts
// (service.MaxValue, which is wire.MaxChunk). Put refuses a larger
// payload, and a read refuses a larger file before it allocates for it,
// as transport.FrameReader refuses a length prefix past its bound.
const MaxSize = 1 << 20

var (
	// ErrNotFound reports a ref with no stored payload.
	ErrNotFound = errors.New("blob: not found")
	// ErrTampered reports a stored payload whose bytes no longer hash to
	// its content address.
	ErrTampered = errors.New("blob: content does not match ref")
)

// Store is a content-addressed blob store rooted at one directory. Puts
// must be serialized (they number their temp files). Get, AppendGet,
// Verify and VerifyAll only read the directory, so any number of them may run at once,
// and alongside one Put: a blob appears whole, by rename
// (internal/service reads on its connection goroutines while its run
// loop writes).
type Store struct {
	dir string
	seq int // temp-file counter, keeps names unique within the process
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(r Ref) string { return filepath.Join(s.dir, r.String()) }

// Put stores a payload and returns its content address. Storing the same
// bytes twice is free: the existing blob is kept — but only after its
// bytes re-verify, so a blob corrupted on disk is repaired rather than
// silently acknowledged. New blobs are written to a temp file, fsync'd,
// renamed into place, and the directory is fsync'd so the entry itself
// survives a crash.
func (s *Store) Put(data []byte) (Ref, error) {
	r := Sum(data)
	if len(data) > MaxSize {
		return r, fmt.Errorf("blob: put: %d bytes exceeds MaxSize", len(data))
	}
	if _, err := s.read(nil, r); err == nil {
		return r, nil // dedup: intact copy already stored
	}
	// Missing or corrupt: write via temp+rename, which is idempotent and
	// atomically replaces a corrupt copy.
	s.seq++
	tmp := filepath.Join(s.dir, fmt.Sprintf(".tmp-%d-%d", os.Getpid(), s.seq))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return r, fmt.Errorf("blob: put: %w", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		return r, fmt.Errorf("blob: put: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return r, fmt.Errorf("blob: put: %w", err)
	}
	if err := os.Rename(tmp, s.path(r)); err != nil {
		os.Remove(tmp)
		return r, fmt.Errorf("blob: put: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return r, fmt.Errorf("blob: put: %w", err)
	}
	return r, nil
}

// syncDir fsyncs the store directory so a just-renamed entry is durable
// across a crash, completing the write-then-rename discipline.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get reads a payload back by ref, re-verifying the content address
// before returning. A missing blob is ErrNotFound; a blob whose bytes
// have changed on disk is ErrTampered.
func (s *Store) Get(r Ref) ([]byte, error) { return s.AppendGet(nil, r) }

// AppendGet is Get appending the payload to dst. On error it returns
// dst's original prefix, intact.
func (s *Store) AppendGet(dst []byte, r Ref) ([]byte, error) {
	out, err := s.read(dst, r)
	switch {
	case err == nil:
		return out, nil
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrTampered):
		return out, fmt.Errorf("%w: %s", err, r)
	default:
		return out, fmt.Errorf("blob: get %s: %w", r, err)
	}
}

var (
	errResized  = fmt.Errorf("%w: file changed size while read", ErrTampered)
	errOversize = fmt.Errorf("%w: file over MaxSize", ErrTampered)
)

// read is the one read path: AppendGet, Put's dedup check and VerifyAll
// all take it. It appends the payload stored under r to dst and checks
// it against r, with four or five system calls: a plain open(2), which
// leaves the runtime's network poller out (a regular file cannot wait in
// it anyway), one fstat(2) to size dst, read(2) into dst until end of
// file, and close(2). dst grows once, to one byte more than the file, so
// a file that grew since the fstat reads long instead of silently
// truncated. A file larger than MaxSize is refused before anything is
// allocated for it. Its errors carry no detail, so a miss costs no
// formatting: ErrNotFound, ErrTampered (or an error wrapping it), or the
// system call's error. On error it returns dst's original prefix.
func (s *Store) read(dst []byte, r Ref) ([]byte, error) {
	var fd int
	err := retry(func() (err error) {
		fd, err = syscall.Open(s.path(r), syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		return err
	})
	if errors.Is(err, os.ErrNotExist) {
		return dst, ErrNotFound
	}
	if err != nil {
		return dst, err
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := retry(func() error { return syscall.Fstat(fd, &st) }); err != nil {
		return dst, err
	}
	if st.Size > MaxSize {
		return dst, errOversize
	}
	n0, size := len(dst), int(st.Size)
	dst = slices.Grow(dst, size+1)
	buf := dst[n0 : n0+size+1]
	n := 0
	for n < len(buf) {
		var k int
		if err := retry(func() (err error) { k, err = syscall.Read(fd, buf[n:]); return err }); err != nil {
			return dst[:n0], err
		}
		if k == 0 {
			break
		}
		n += k
	}
	switch {
	case n != size:
		return dst[:n0], errResized
	case Sum(buf[:size]) != r:
		return dst[:n0], ErrTampered
	}
	return dst[:n0+size], nil
}

// retry runs a system call again for as long as a signal interrupts it.
func retry(call func() error) error {
	for {
		if err := call(); err != syscall.EINTR {
			return err
		}
	}
}

// Verify checks one stored blob against its content address without
// returning the payload.
func (s *Store) Verify(r Ref) error {
	_, err := s.Get(r)
	return err
}

// Refs lists every stored content address in sorted order, skipping
// temp files and anything that does not parse as a ref.
func (s *Store) Refs() ([]Ref, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("blob: list: %w", err)
	}
	var refs []Ref
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		r, err := ParseRef(e.Name())
		if err != nil {
			continue
		}
		refs = append(refs, r)
	}
	slices.SortFunc(refs, Ref.Compare)
	return refs, nil
}

// VerifyAll checks every stored blob once: one listing, then each blob
// read through one reused buffer and re-hashed. It returns every stored
// ref in sorted order and the ones that failed, also sorted.
func (s *Store) VerifyAll() (refs, bad []Ref, err error) {
	if refs, err = s.Refs(); err != nil {
		return nil, nil, err
	}
	var buf []byte
	for _, r := range refs {
		if buf, err = s.read(buf[:0], r); err != nil {
			bad = append(bad, r)
		}
	}
	return refs, bad, nil
}
