package adaptiveba

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adaptiveba/internal/blob"
	"adaptiveba/internal/kv"
	"adaptiveba/internal/service"
)

func startService(t *testing.T, opts ...ServeOption) (*Service, string) {
	t.Helper()
	dir := t.TempDir()
	blobDir := filepath.Join(dir, "blobs")
	opts = append([]ServeOption{WithBlobDir(blobDir), WithServeSeed(5), WithInlineMax(64)}, opts...)
	svc, err := ServeContext(context.Background(), "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, blobDir
}

func TestServePutGetVerify(t *testing.T) {
	svc, _ := startService(t)
	ctx := context.Background()
	c, err := DialContext(ctx, svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	small := []byte("small")
	large := bytes.Repeat([]byte("p"), 500) // above InlineMax: anchored
	if err := c.Put(ctx, []byte("a"), small); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, []byte("b"), large); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get(ctx, []byte("a")); err != nil || !bytes.Equal(v, small) {
		t.Fatalf("get a: %q %v", v, err)
	}
	if v, err := c.Get(ctx, []byte("b")); err != nil || !bytes.Equal(v, large) {
		t.Fatalf("get b (anchored): %v", err)
	}
	if _, err := c.Get(ctx, []byte("missing")); !errors.Is(err, ErrKeyNotFound) || !errors.Is(err, ErrService) {
		t.Fatalf("want ErrKeyNotFound in the ErrService tree, got %v", err)
	}
	if err := c.Del(ctx, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, []byte("a")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("deleted key still readable: %v", err)
	}
	rep, err := c.Verify(ctx)
	if err != nil || !rep.OK() {
		t.Fatalf("verify: %v (%+v)", err, rep)
	}
	st := svc.Stats()
	if st.Committed < 3 || st.Words == 0 {
		t.Fatalf("stats not accumulating: %+v", st)
	}
}

// TestServeTamperVisibleToClient: a flipped byte in the server's blob
// store surfaces to the remote client as the public ErrTampered.
func TestServeTamperVisibleToClient(t *testing.T) {
	svc, blobDir := startService(t)
	ctx := context.Background()
	c, err := DialContext(ctx, svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	large := bytes.Repeat([]byte("x"), 300)
	if err := c.Put(ctx, []byte("k"), large); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(blobDir, blob.Sum(large).String())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[7] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Verify(ctx)
	if !errors.Is(err, ErrTampered) || !errors.Is(err, ErrService) {
		t.Fatalf("want public ErrTampered, got %v", err)
	}
	if rep == nil || rep.BadBlobs != 1 {
		t.Fatalf("report blames %+v, want 1 bad blob", rep)
	}
	if _, err := c.Get(ctx, []byte("k")); !errors.Is(err, ErrTampered) {
		t.Fatalf("get of tampered value: want ErrTampered, got %v", err)
	}
}

func TestServeSnapshotOption(t *testing.T) {
	svc, _ := startService(t, WithSnapshotEvery(2))
	ctx := context.Background()
	c, err := DialContext(ctx, svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if err := c.Put(ctx, []byte{byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Force a read so every buffered write is flushed before we look.
	if _, err := c.Get(ctx, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Snapshots == 0 || st.Truncated == 0 {
		t.Fatalf("WithSnapshotEvery(2) never snapshotted: %+v", st)
	}
}

func TestServeOptionValidation(t *testing.T) {
	if _, err := ServeContext(context.Background(), "127.0.0.1:0"); !errors.Is(err, ErrOptions) {
		t.Fatalf("missing WithBlobDir: want ErrOptions, got %v", err)
	}
	dir := t.TempDir()
	_, err := ServeContext(context.Background(), "127.0.0.1:0",
		WithBlobDir(filepath.Join(dir, "b")), WithCrashFaults(99))
	if !errors.Is(err, ErrOptions) {
		t.Fatalf("absurd fault count: want ErrOptions, got %v", err)
	}
}

// TestServeRejectsUnusableReplicaCount: a replica count the agreement
// rounds cannot run (n < 3) fails at ServeContext with ErrOptions, not at
// the first Put.
func TestServeRejectsUnusableReplicaCount(t *testing.T) {
	for _, n := range []int{1, 2} {
		svc, err := ServeContext(context.Background(), "127.0.0.1:0",
			WithBlobDir(filepath.Join(t.TempDir(), "b")), WithReplicas(n))
		if err == nil {
			svc.Close()
		}
		if !errors.Is(err, ErrOptions) {
			t.Errorf("WithReplicas(%d): want ErrOptions, got %v", n, err)
		}
	}
}

func TestServeContextShutdown(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	svc, err := ServeContext(ctx, "127.0.0.1:0", WithBlobDir(filepath.Join(dir, "b")))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := DialContext(context.Background(), svc.Addr(),
			WithRequestTimeout(100*time.Millisecond), WithRetries(0)); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service still accepting connections after context cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := svc.Close(); err != nil { // idempotent after ctx-driven close
		t.Fatalf("second close: %v", err)
	}
}

func TestServeClientContextCancel(t *testing.T) {
	svc, _ := startService(t)
	c, err := DialContext(context.Background(), svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled put: want ErrCanceled, got %v", err)
	}
}

// TestServiceSentinelTree pins the error-tree contract: every refined
// service sentinel matches ErrService, and internal errors lift into
// the public identities.
func TestServiceSentinelTree(t *testing.T) {
	for name, err := range map[string]error{
		"ErrTampered":         ErrTampered,
		"ErrDuplicate":        ErrDuplicate,
		"ErrSnapshotMismatch": ErrSnapshotMismatch,
		"ErrKeyNotFound":      ErrKeyNotFound,
	} {
		if !errors.Is(err, ErrService) {
			t.Errorf("%s does not match ErrService", name)
		}
	}
	cases := []struct {
		in   error
		want error
	}{
		{service.ErrTampered, ErrTampered},
		{service.ErrDuplicate, ErrDuplicate},
		{service.ErrNotFound, ErrKeyNotFound},
		{kv.ErrSnapshotMismatch, ErrSnapshotMismatch},
		{context.Canceled, ErrCanceled},
	}
	for _, tc := range cases {
		got := mapServiceErr(tc.in)
		if !errors.Is(got, tc.want) {
			t.Errorf("mapServiceErr(%v) = %v, want %v", tc.in, got, tc.want)
		}
		if !errors.Is(got, tc.in) {
			t.Errorf("mapServiceErr(%v) lost the original identity", tc.in)
		}
	}
	if mapServiceErr(service.ErrConfig) == nil || !errors.Is(mapServiceErr(service.ErrConfig), ErrOptions) {
		t.Error("service config errors must lift into ErrOptions")
	}
	if !errors.Is(mapServiceErr(service.ErrUnavailable), ErrService) {
		t.Error("unclassified service errors must still match ErrService")
	}
}
