package service

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"adaptiveba/internal/transport"
	"adaptiveba/internal/wire"
)

// ErrUnavailable reports a request that got no response within the
// retry budget (the server is gone, or chaos ate every attempt).
var ErrUnavailable = errors.New("service: no response within retry budget")

// newWelcome encodes a FrameWelcome body.
func newWelcome(id int) []byte {
	w := wire.NewWriter()
	w.PutInt(id)
	return w.Bytes()
}

// decodeWelcome parses a FrameWelcome body.
func decodeWelcome(b []byte) (int, error) {
	r := wire.NewReader(b)
	id := r.Int()
	if err := r.Close(); err != nil {
		return 0, fmt.Errorf("service: bad welcome: %w", err)
	}
	if id < 0 {
		return 0, fmt.Errorf("service: bad welcome: negative id")
	}
	return id, nil
}

// ClientConfig tunes a client session.
type ClientConfig struct {
	// Timeout bounds one attempt's wait for a response (default 2s).
	Timeout time.Duration
	// Retries is how many times a timed-out request is re-sent with the
	// same sequence number (default 4). Retries are what make the
	// server's dedup window observable: a write executed but whose
	// response was lost is answered from the window, never re-executed.
	Retries int
}

// Client is one synchronous service session. Not goroutine-safe: one
// request is in flight at a time (use one Client per goroutine).
type Client struct {
	cfg  ClientConfig
	conn net.Conn
	br   *bufio.Reader // conn, buffered: one read per frame, not one per prefix and one per body
	fr   transport.FrameReader
	id   int
	seq  int
}

// Dial connects, performs the hello handshake, and returns a session
// with a server-assigned client ID.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 4
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w", addr, err)
	}
	c := &Client{cfg: cfg, conn: conn, br: bufio.NewReader(conn)}
	if err := transport.WriteFrame(conn, FrameHello, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("service: hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(cfg.Timeout))
	kind, body, err := c.fr.Read(c.br)
	if err != nil || kind != FrameWelcome {
		conn.Close()
		return nil, fmt.Errorf("service: handshake failed: %v", err)
	}
	id, err := decodeWelcome(body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.id = id
	return c, nil
}

// Close tears the session down.
func (c *Client) Close() error { return c.conn.Close() }

// ID returns the server-assigned client ID.
func (c *Client) ID() int { return c.id }

// Do sends one request and waits for its response, re-sending the same
// sequence number on timeout. Stale responses (earlier seqs delayed by
// chaos) are discarded by seq match. The context is honored at attempt
// granularity: a context deadline caps each attempt's read deadline, and
// cancellation is noticed between attempts (at worst one Timeout late).
func (c *Client) Do(ctx context.Context, op byte, key, value []byte) (*Response, error) {
	c.seq++
	req := EncodeRequest(&Request{Client: c.id, Seq: c.seq, Op: op, Key: key, Value: value})
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := transport.WriteFrame(c.conn, FrameRequest, req); err != nil {
			return nil, fmt.Errorf("service: send: %w", err)
		}
		deadline := time.Now().Add(c.cfg.Timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		for {
			c.conn.SetReadDeadline(deadline)
			kind, body, err := c.fr.Read(c.br)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					if cerr := ctx.Err(); cerr != nil {
						return nil, cerr
					}
					break // retry the same seq
				}
				return nil, fmt.Errorf("service: recv: %w", err)
			}
			if kind != FrameResponse {
				continue
			}
			resp, err := DecodeResponse(body)
			if err != nil {
				return nil, err
			}
			if resp.Seq != c.seq {
				continue // stale (delayed) response to an earlier request
			}
			return resp, nil
		}
	}
	return nil, fmt.Errorf("%w: seq %d after %d attempts", ErrUnavailable, c.seq, c.cfg.Retries+1)
}

// ResponseErr maps an error response back to the typed sentinels (nil
// for StatusOK).
func ResponseErr(p *Response) error {
	if p.Status == StatusOK {
		return nil
	}
	switch p.Code {
	case CodeNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, p.Detail)
	case CodeDuplicate:
		return fmt.Errorf("%w: %s", ErrDuplicate, p.Detail)
	case CodeTampered:
		return fmt.Errorf("%w: %s", ErrTampered, p.Detail)
	default:
		return fmt.Errorf("service: request failed: %s", p.Detail)
	}
}

// Put commits key=value through agreement (anchoring large values).
func (c *Client) Put(key, value []byte) error {
	if len(value) > MaxValue {
		return fmt.Errorf("%w: value of %d bytes exceeds MaxValue", ErrConfig, len(value))
	}
	resp, err := c.Do(context.Background(), ReqPut, key, value)
	if err != nil {
		return err
	}
	return ResponseErr(resp)
}

// Del commits a delete through agreement.
func (c *Client) Del(key []byte) error {
	resp, err := c.Do(context.Background(), ReqDel, key, nil)
	if err != nil {
		return err
	}
	return ResponseErr(resp)
}

// Get reads a key from replicated state (anchored values resolve
// through the blob store with content verification).
func (c *Client) Get(key []byte) ([]byte, error) {
	resp, err := c.Do(context.Background(), ReqGet, key, nil)
	if err != nil {
		return nil, err
	}
	if err := ResponseErr(resp); err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Verify asks the server for the end-to-end tamper-evidence walk. The
// report is returned even when verification fails (err wraps
// ErrTampered and the report says what broke).
func (c *Client) Verify() (*VerifyReport, error) {
	resp, err := c.Do(context.Background(), ReqVerify, nil, nil)
	if err != nil {
		return nil, err
	}
	return resp.Report, ResponseErr(resp)
}
