// Service wire codecs: the client↔server request/response payloads and
// the audit log's on-disk record format. Everything rides the
// length-prefixed big-endian internal/wire codec, so every variable
// field inherits the wire.MaxChunk hostile-length guard, and the framing
// above (transport.WriteFrame / FrameReader) bounds whole messages at
// transport.MaxFrame. Decoders must survive arbitrary bytes — both
// codecs are in the fuzz corpus (fuzz_test.go).
package service

import (
	"fmt"

	"adaptiveba/internal/blob"
	"adaptiveba/internal/wire"
)

// Frame kinds on a service connection (client↔server), allocated above
// transport.ServiceFrameBase so they can never collide with the mesh
// handshake.
const (
	// FrameHello opens a session: client → server, empty body; the
	// server replies FrameWelcome with the assigned client ID.
	FrameHello byte = 16 + iota
	// FrameWelcome carries the assigned client ID (8 bytes, PutInt).
	FrameWelcome
	// FrameRequest carries an encoded Request.
	FrameRequest
	// FrameResponse carries an encoded Response.
	FrameResponse
)

// Request ops.
const (
	ReqPut    byte = 1
	ReqGet    byte = 2
	ReqDel    byte = 3
	ReqVerify byte = 4
)

// MaxValue bounds a single value, inline or anchored: request bodies are
// wire-chunked, so anything larger fails encoding anyway. Exposed so
// clients can reject oversized payloads before a round trip.
const MaxValue = wire.MaxChunk

// Request is one client request. Dedup identity is (Client, Seq): a
// retried request reuses its Seq, and the server replays a write's
// recorded response instead of re-executing it (a read runs again).
type Request struct {
	Client int
	Seq    int
	Op     byte
	Key    []byte
	Value  []byte
}

// Response statuses.
const (
	StatusOK byte = 1
	// StatusError carries a failure in Detail; Sentinel maps it back to
	// a typed error at the client.
	StatusError byte = 2
)

// Sentinel codes carried in error responses so typed errors survive the
// wire (see Client.mapError / the public API's sentinels).
const (
	CodeNone       byte = 0
	CodeNotFound   byte = 1
	CodeDuplicate  byte = 2
	CodeTampered   byte = 3
	CodeBadRequest byte = 4
)

// Response answers one request. For ReqGet, Value is the resolved
// payload. For ReqVerify, Report is set.
type Response struct {
	Seq    int
	Status byte
	Code   byte
	Detail string
	Value  []byte
	Report *VerifyReport
}

// VerifyReport is the outcome of a full tamper-evidence walk.
type VerifyReport struct {
	// Entries is the audit chain length checked.
	Entries int
	// Blobs is the number of stored blobs checked.
	Blobs int
	// ChainOK reports the hash chain recomputed end to end.
	ChainOK bool
	// BadBlobs counts anchored entries whose blob failed its content
	// check; BadSeqs lists their audit seqs.
	BadBlobs int
	BadSeqs  []int
	// StateHash is the kv state digest at verification time.
	StateHash string
}

// OK reports a fully clean verification.
func (r *VerifyReport) OK() bool { return r.ChainOK && r.BadBlobs == 0 }

// EncodeRequest serializes a request into one exact-size buffer.
func EncodeRequest(q *Request) []byte {
	w := wire.NewWriterSize(2*wire.SizeInt + 1 + wire.SizeBytes(len(q.Key)) + wire.SizeBytes(len(q.Value)))
	w.PutInt(q.Client)
	w.PutInt(q.Seq)
	w.PutByte(q.Op)
	w.PutBytes(q.Key)
	w.PutBytes(q.Value)
	return w.Bytes()
}

// DecodeRequest parses a request, rejecting trailing bytes and hostile
// lengths.
func DecodeRequest(b []byte) (*Request, error) {
	r := wire.NewReader(b)
	q := &Request{
		Client: r.Int(),
		Seq:    r.Int(),
		Op:     r.Byte(),
		Key:    r.Bytes(),
		Value:  r.Bytes(),
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("service: bad request: %w", err)
	}
	if q.Client < 0 || q.Seq < 0 {
		return nil, fmt.Errorf("service: bad request: negative client/seq")
	}
	switch q.Op {
	case ReqPut, ReqGet, ReqDel, ReqVerify:
	default:
		return nil, fmt.Errorf("service: bad request: unknown op %d", q.Op)
	}
	return q, nil
}

// getHeaderSize is the length of an OK Get response ahead of its value:
// Seq, Status, Code, the empty Detail's length, and the Value's length
// (Core.getResponse).
const getHeaderSize = 3*wire.SizeInt + 2

// EncodeResponse serializes a response into one exact-size buffer.
func EncodeResponse(p *Response) []byte {
	size := wire.SizeInt + 2 + wire.SizeBytes(len(p.Detail)) + wire.SizeBytes(len(p.Value)) + 1
	if rep := p.Report; rep != nil {
		size += 4*wire.SizeInt + 1 + len(rep.BadSeqs)*wire.SizeInt + wire.SizeBytes(len(rep.StateHash))
	}
	w := wire.NewWriterSize(size)
	w.PutInt(p.Seq)
	w.PutByte(p.Status)
	w.PutByte(p.Code)
	w.PutString(p.Detail)
	w.PutBytes(p.Value)
	if p.Report == nil {
		w.PutBool(false)
	} else {
		w.PutBool(true)
		w.PutInt(p.Report.Entries)
		w.PutInt(p.Report.Blobs)
		w.PutBool(p.Report.ChainOK)
		w.PutInt(p.Report.BadBlobs)
		w.PutInt(len(p.Report.BadSeqs))
		for _, s := range p.Report.BadSeqs {
			w.PutInt(s)
		}
		w.PutString(p.Report.StateHash)
	}
	return w.Bytes()
}

// DecodeResponse parses a response.
func DecodeResponse(b []byte) (*Response, error) {
	r := wire.NewReader(b)
	p := &Response{
		Seq:    r.Int(),
		Status: r.Byte(),
		Code:   r.Byte(),
		Detail: r.String(),
		Value:  r.Bytes(),
	}
	if r.Bool() {
		rep := &VerifyReport{
			Entries:  r.Int(),
			Blobs:    r.Int(),
			ChainOK:  r.Bool(),
			BadBlobs: r.Int(),
		}
		n := r.Int()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("service: bad response: %w", err)
		}
		if n < 0 || n > wire.MaxChunk/8 {
			return nil, fmt.Errorf("service: bad response: implausible bad-seq count %d", n)
		}
		for i := 0; i < n; i++ {
			rep.BadSeqs = append(rep.BadSeqs, r.Int())
		}
		rep.StateHash = r.String()
		p.Report = rep
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("service: bad response: %w", err)
	}
	return p, nil
}

// putAuditFields encodes every field of an audit record but its last,
// Hash: the bytes the entry hash covers after auditDomain. The on-disk
// record is these bytes followed by the hash, so its prefix is its own
// hash preimage.
func putAuditFields(w *wire.Writer, e *AuditEntry) {
	w.PutInt(e.Seq)
	w.PutInt(e.Slot)
	w.PutByte(e.Op)
	w.PutBytes(e.Key)
	w.PutBytes(e.Anchor[:])
	w.PutBool(e.Anchored)
	w.PutBytes(e.Prev[:])
}

// auditRecordSize is the encoded size of e's on-disk record.
func auditRecordSize(e *AuditEntry) int {
	return 2*wire.SizeInt + 1 + wire.SizeBytes(len(e.Key)) + wire.SizeBytes(len(e.Anchor)) + 1 +
		wire.SizeBytes(len(e.Prev)) + wire.SizeBytes(len(e.Hash))
}

// EncodeAuditEntry serializes one audit record (the on-disk format is a
// plain concatenation of these).
func EncodeAuditEntry(e *AuditEntry) []byte {
	w := wire.NewWriterSize(auditRecordSize(e))
	putAuditFields(w, e)
	w.PutBytes(e.Hash[:])
	return w.Bytes()
}

// decodeAuditEntry reads one record from r.
func decodeAuditEntry(r *wire.Reader, e *AuditEntry) error {
	e.Seq = r.Int()
	e.Slot = r.Int()
	e.Op = r.Byte()
	e.Key = r.Bytes()
	anchor := r.Bytes()
	e.Anchored = r.Bool()
	prev := r.Bytes()
	hash := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if len(anchor) != 32 || len(prev) != 32 || len(hash) != 32 {
		return fmt.Errorf("service: bad audit record: digest lengths %d/%d/%d",
			len(anchor), len(prev), len(hash))
	}
	if e.Seq < 0 || e.Slot < 0 {
		return fmt.Errorf("service: bad audit record: negative seq/slot")
	}
	copy(e.Anchor[:], anchor)
	copy(e.Prev[:], prev)
	copy(e.Hash[:], hash)
	return nil
}

// DecodeAuditEntry parses one standalone audit record.
func DecodeAuditEntry(b []byte) (*AuditEntry, error) {
	r := wire.NewReader(b)
	var e AuditEntry
	if err := decodeAuditEntry(r, &e); err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("service: bad audit record: %w", err)
	}
	return &e, nil
}

// DecodeAuditLog parses a whole on-disk audit file (concatenated
// records). The record count is bounded by the input length, so a
// hostile file cannot amplify allocation.
func DecodeAuditLog(data []byte) ([]AuditEntry, error) {
	r := wire.NewReader(data)
	var out []AuditEntry
	for r.Err() == nil {
		if rem := r.Close(); rem == nil {
			break // fully consumed
		}
		var e AuditEntry
		if err := decodeAuditEntry(r, &e); err != nil {
			return nil, fmt.Errorf("service: audit record %d: %w", len(out), err)
		}
		out = append(out, e)
	}
	return out, nil
}

// anchorOf computes the content address an audit entry records for a
// committed value.
func anchorOf(value []byte) blob.Ref { return blob.Sum(value) }
