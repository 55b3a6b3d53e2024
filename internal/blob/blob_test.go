package blob

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown fox")
	ref, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ref != Sum(payload) {
		t.Fatalf("ref mismatch: %s vs %s", ref, Sum(payload))
	}
	got, err := s.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	if err := s.Verify(ref); err != nil {
		t.Fatal(err)
	}
}

func TestPutDedup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Put([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Put([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("dedup refs differ: %s vs %s", r1, r2)
	}
	refs, err := s.Refs()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Fatalf("want 1 stored blob, got %d", len(refs))
	}
}

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(Sum([]byte("never stored")))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestTamperedBlobDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Put([]byte("payload to corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte of the stored file.
	path := filepath.Join(dir, ref.String())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); !errors.Is(err, ErrTampered) {
		t.Fatalf("want ErrTampered, got %v", err)
	}
	bad, err := s.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != ref {
		t.Fatalf("VerifyAll missed the tampered blob: %v", bad)
	}
}

// TestPutRepairsCorruptBlob: re-storing bytes whose on-disk copy was
// corrupted must rewrite the blob, not ack the corrupt copy as durable.
func TestPutRepairsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("payload to corrupt then re-put")
	ref, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ref.String())
	if err := os.WriteFile(path, []byte("corrupted on disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); !errors.Is(err, ErrTampered) {
		t.Fatalf("want ErrTampered before repair, got %v", err)
	}
	if _, err := s.Put(payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ref)
	if err != nil {
		t.Fatalf("blob not repaired by Put: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("repaired payload mismatch: %q", got)
	}
}

func TestRefParseRoundTrip(t *testing.T) {
	ref := Sum([]byte("abc"))
	back, err := ParseRef(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != ref {
		t.Fatalf("parse round trip mismatch")
	}
	if _, err := ParseRef("zz"); err == nil {
		t.Fatal("want error for bad hex")
	}
	if _, err := ParseRef("abcd"); err == nil {
		t.Fatal("want error for short ref")
	}
}

func TestRefsSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	refs, err := s.Refs()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Fatalf("want 1 ref, got %d", len(refs))
	}
}

// TestAppendGetTamperMatrix gives AppendGet Get's tamper checks — a
// flipped byte, a truncated file, a grown file, a missing file — and
// requires every failure to hand back dst's prefix untouched, whether dst
// had room for the payload or had to grow.
func TestAppendGetTamperMatrix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("append-get "), 40)
	ref, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ref.String())
	prefix := []byte("header:")
	dsts := map[string]func() []byte{
		"nil":   func() []byte { return nil },
		"tight": func() []byte { return append([]byte(nil), prefix...) },
		"roomy": func() []byte { return append(make([]byte, 0, len(prefix)+2*len(payload)), prefix...) },
	}
	for name, dst := range dsts {
		got, err := s.AppendGet(dst(), ref)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := append(dst(), payload...)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendGet returned %q", name, got)
		}
	}
	if got, err := s.Get(ref); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after AppendGet: %q, %v", got, err)
	}

	tampers := []struct {
		name   string
		mutate func(data []byte) []byte // nil: delete the file
		want   error
	}{
		{"flipped", func(d []byte) []byte { d[5] ^= 0x01; return d }, ErrTampered},
		{"truncated", func(d []byte) []byte { return d[:len(d)-1] }, ErrTampered},
		{"grown", func(d []byte) []byte { return append(d, 'x') }, ErrTampered},
		{"emptied", func(d []byte) []byte { return d[:0] }, ErrTampered},
		{"missing", nil, ErrNotFound},
	}
	for _, tc := range tampers {
		if tc.mutate == nil {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, tc.mutate(bytes.Clone(payload)), 0o644); err != nil {
			t.Fatal(err)
		}
		for name, dst := range dsts {
			d := dst()
			got, err := s.AppendGet(d, ref)
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s/%s: want %v, got %v", tc.name, name, tc.want, err)
			}
			if !bytes.Equal(got, d) || !bytes.Equal(d, dst()) {
				t.Fatalf("%s/%s: prefix %q came back as %q", tc.name, name, dst(), got)
			}
		}
		if _, err := s.Get(ref); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Get wants %v, got %v", tc.name, tc.want, err)
		}
	}
}

// TestAppendGetEmptyBlob: a zero-length payload reads back as nothing
// appended, not as a short read.
func TestAppendGetEmptyBlob(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Put(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AppendGet([]byte("p"), ref)
	if err != nil || string(got) != "p" {
		t.Fatalf("AppendGet of an empty blob: %q, %v", got, err)
	}
}
