// Public service surface: the replicated KV service (internal/service)
// exposed with the package's API conventions — context entry points,
// functional options, and typed sentinel errors. ServeContext starts a
// server whose writes commit through the batched ACS agreement rounds
// and whose large values take the triangle architecture (off-chain
// content-addressed blobs, constant-size anchors through agreement, a
// hash-chained audit log binding the two); DialContext opens a client
// session with request dedup on the server side.
package adaptiveba

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"adaptiveba/internal/kv"
	"adaptiveba/internal/service"
)

// Service-surface sentinels. ErrService is the broad class every
// service failure matches; the refined sentinels chain onto it, so
// errors.Is(err, ErrTampered) implies errors.Is(err, ErrService).
var (
	// ErrService is the broad service failure class.
	ErrService = errors.New("adaptiveba: service error")
	// ErrTampered reports tamper evidence: a stored blob or audit-log
	// record whose bytes no longer match their digest or chain.
	ErrTampered error = &sentinel{"adaptiveba: tamper evidence", ErrService}
	// ErrDuplicate reports a (client, seq) request that fell behind the
	// server's dedup window — too old to replay, refused rather than
	// risk re-execution.
	ErrDuplicate error = &sentinel{"adaptiveba: duplicate request outside dedup window", ErrService}
	// ErrSnapshotMismatch reports a state snapshot whose embedded state
	// hash does not match its contents on restore.
	ErrSnapshotMismatch error = &sentinel{"adaptiveba: snapshot state hash mismatch", ErrService}
	// ErrKeyNotFound reports a Get of a key absent from replicated state.
	ErrKeyNotFound error = &sentinel{"adaptiveba: key not found", ErrService}
)

// mapServiceErr lifts internal service errors into the public tree.
func mapServiceErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, service.ErrTampered):
		return fmt.Errorf("%w: %w", ErrTampered, err)
	case errors.Is(err, service.ErrDuplicate):
		return fmt.Errorf("%w: %w", ErrDuplicate, err)
	case errors.Is(err, kv.ErrSnapshotMismatch):
		return fmt.Errorf("%w: %w", ErrSnapshotMismatch, err)
	case errors.Is(err, service.ErrNotFound):
		return fmt.Errorf("%w: %w", ErrKeyNotFound, err)
	case errors.Is(err, service.ErrConfig):
		return fmt.Errorf("%w: %w", ErrOptions, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	default:
		return fmt.Errorf("%w: %w", ErrService, err)
	}
}

// ServeOption configures a service started by ServeContext.
type ServeOption func(*serveConfig)

type serveConfig struct {
	core        service.Config
	dedupWindow int
}

// WithBlobDir roots the content-addressed blob store (required). Values
// above the inline threshold are stored here and only their 32-byte
// anchors ride through agreement.
func WithBlobDir(dir string) ServeOption {
	return func(c *serveConfig) { c.core.BlobDir = dir }
}

// WithAuditPath locates the hash-chained audit log file (default
// <blobdir>/audit.log).
func WithAuditPath(path string) ServeOption {
	return func(c *serveConfig) { c.core.AuditPath = path }
}

// WithSnapshotEvery snapshots the replicated state and truncates the
// in-memory log each time k committed entries accumulate (default 1024;
// negative disables).
func WithSnapshotEvery(k int) ServeOption {
	return func(c *serveConfig) { c.core.SnapshotEvery = k }
}

// WithDedupWindow sets how many write responses per client session the
// server retains for replay (default 64). A retried write inside the
// window gets its original response back without re-execution; one
// behind the window fails with ErrDuplicate. A retried read runs again.
func WithDedupWindow(w int) ServeOption {
	return func(c *serveConfig) { c.dedupWindow = w }
}

// WithReplicas sets the service's replica count n (default 4).
func WithReplicas(n int) ServeOption {
	return func(c *serveConfig) { c.core.N = n }
}

// WithCrashFaults crashes f replicas for the service's agreement rounds
// (0 ≤ f ≤ t), exercising the adaptive cost under real faults.
func WithCrashFaults(f int) ServeOption {
	return func(c *serveConfig) { c.core.F = f }
}

// WithInlineMax sets the largest value committed inline through
// agreement (default 256 bytes); larger values are anchored through the
// blob store.
func WithInlineMax(n int) ServeOption {
	return func(c *serveConfig) { c.core.InlineMax = n }
}

// WithCommitBatch bounds commands per proposer per agreement round
// (default 8).
func WithCommitBatch(b int) ServeOption {
	return func(c *serveConfig) { c.core.Batch = b }
}

// ServiceStats reports the service's accumulated agreement-side costs.
type ServiceStats struct {
	// Rounds is the number of committed agreement rounds; Committed the
	// number of committed commands.
	Rounds    int
	Committed int
	// Words / Messages / Bytes are honest-send totals across all rounds.
	// Words weigh every value as one word regardless of size; Bytes
	// meter each payload's encoding.
	Words    int64
	Messages int64
	Bytes    int64
	// Snapshots counts snapshot+truncate events; Truncated the log
	// entries they dropped.
	Snapshots int
	Truncated int
}

// Service is a running replicated KV service.
type Service struct {
	srv  *service.Server
	quit chan struct{}
	once sync.Once
	err  error
}

// ServeContext starts the replicated KV service listening on addr (use
// "127.0.0.1:0" to bind an ephemeral port; Addr reports the bound
// address). WithBlobDir is required — it roots the off-chain blob store
// of the triangle architecture. Cancelling the context shuts the
// service down; Close does the same explicitly.
func ServeContext(ctx context.Context, addr string, opts ...ServeOption) (*Service, error) {
	cfg := serveConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.core.BlobDir == "" {
		return nil, fmt.Errorf("%w: WithBlobDir is required", ErrOptions)
	}
	if cfg.core.AuditPath == "" {
		cfg.core.AuditPath = filepath.Join(cfg.core.BlobDir, "audit.log")
	}
	srv, err := service.NewServer(service.ServerConfig{
		Core:        cfg.core,
		Addr:        addr,
		DedupWindow: cfg.dedupWindow,
	})
	if err != nil {
		return nil, mapServiceErr(err)
	}
	s := &Service{srv: srv, quit: make(chan struct{})}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.Close()
			case <-s.quit:
			}
		}()
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Service) Addr() string { return s.srv.Addr() }

// Stats returns the service's accumulated agreement-side cost counters.
// The read holds the lock the commit path counts under, so the numbers
// are a consistent snapshot — though concurrent commits may move them
// the moment it returns. It never waits behind a running agreement.
func (s *Service) Stats() ServiceStats {
	st := s.srv.Stats()
	return ServiceStats{
		Rounds: st.Rounds, Committed: st.Committed,
		Words: st.Words, Messages: st.Messages, Bytes: st.Bytes,
		Snapshots: st.Snapshots, Truncated: st.Truncated,
	}
}

// Close shuts the service down. Safe to call more than once (and
// concurrently with a context-driven shutdown).
func (s *Service) Close() error {
	s.once.Do(func() {
		close(s.quit)
		s.err = mapServiceErr(s.srv.Close())
	})
	return s.err
}

// DialOption tunes a client session opened by DialContext.
type DialOption func(*service.ClientConfig)

// WithRequestTimeout bounds one attempt's wait for a response (default
// 2s); a timed-out request is retried with the same sequence number, so
// the server's dedup window absorbs a lost write without re-execution.
func WithRequestTimeout(d time.Duration) DialOption {
	return func(c *service.ClientConfig) { c.Timeout = d }
}

// WithRetries sets how many times a timed-out request is re-sent
// (default 4).
func WithRetries(n int) DialOption {
	return func(c *service.ClientConfig) { c.Retries = n }
}

// Client is one session against a running Service. Not goroutine-safe:
// one request is in flight at a time (use one Client per goroutine).
type Client struct {
	c *service.Client
}

// DialContext connects to a service, performs the session handshake,
// and returns a client with a server-assigned session ID.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, mapServiceErr(err)
		}
	}
	var cfg service.ClientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	c, err := service.Dial(addr, cfg)
	if err != nil {
		return nil, mapServiceErr(err)
	}
	return &Client{c: c}, nil
}

// Close tears the session down.
func (c *Client) Close() error { return c.c.Close() }

// Put commits key=value through the agreement rounds. Values above the
// inline threshold never enter agreement: they are stored in the blob
// store and only their content anchor is committed, so the per-request
// word cost stays constant regardless of payload size.
func (c *Client) Put(ctx context.Context, key, value []byte) error {
	if len(value) > service.MaxValue {
		return fmt.Errorf("%w: value of %d bytes exceeds the %d-byte limit",
			ErrInputs, len(value), service.MaxValue)
	}
	resp, err := c.c.Do(ctx, service.ReqPut, key, value)
	if err != nil {
		return mapServiceErr(err)
	}
	return mapServiceErr(service.ResponseErr(resp))
}

// Del commits a delete through the agreement rounds.
func (c *Client) Del(ctx context.Context, key []byte) error {
	resp, err := c.c.Do(ctx, service.ReqDel, key, nil)
	if err != nil {
		return mapServiceErr(err)
	}
	return mapServiceErr(service.ResponseErr(resp))
}

// Get reads a key from replicated state. Anchored values resolve
// through the blob store with content verification: a tampered blob
// fails with ErrTampered rather than returning corrupt bytes.
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, error) {
	resp, err := c.c.Do(ctx, service.ReqGet, key, nil)
	if err != nil {
		return nil, mapServiceErr(err)
	}
	if err := service.ResponseErr(resp); err != nil {
		return nil, mapServiceErr(err)
	}
	return resp.Value, nil
}

// VerifyReport summarizes the server's end-to-end tamper-evidence walk.
type VerifyReport struct {
	// Entries is the audit-chain length; Blobs the stored blob count.
	Entries int
	Blobs   int
	// ChainOK reports an intact hash chain; BadBlobs counts anchored
	// blobs whose bytes no longer match their digest, with the audit
	// sequence numbers that anchor them in BadSeqs.
	ChainOK  bool
	BadBlobs int
	BadSeqs  []int
	// StateHash digests the replicated KV state.
	StateHash string
}

// OK reports a fully clean verification.
func (r *VerifyReport) OK() bool { return r != nil && r.ChainOK && r.BadBlobs == 0 }

// Verify asks the server to walk the audit hash chain end to end and
// re-hash every anchored blob. A single flipped byte anywhere in the
// blob store or the audit log surfaces here as ErrTampered; the report
// is returned alongside the error and says what broke.
func (c *Client) Verify(ctx context.Context) (*VerifyReport, error) {
	resp, err := c.c.Do(ctx, service.ReqVerify, nil, nil)
	if err != nil {
		return nil, mapServiceErr(err)
	}
	var rep *VerifyReport
	if resp.Report != nil {
		rep = &VerifyReport{
			Entries: resp.Report.Entries, Blobs: resp.Report.Blobs,
			ChainOK: resp.Report.ChainOK, BadBlobs: resp.Report.BadBlobs,
			BadSeqs: resp.Report.BadSeqs, StateHash: resp.Report.StateHash,
		}
	}
	return rep, mapServiceErr(service.ResponseErr(resp))
}
