package bb

import (
	"bytes"
	"errors"
	"fmt"

	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// The BB protocol agrees (via weak BA) on structured values: either the
// sender's signed value ⟨v⟩_sender or an idk quorum certificate formed by
// a vetting phase. Both are serialized into opaque types.Values so the
// weak BA layer stays value-agnostic, exactly as the reduction in
// Section 5 requires.

// Value kinds used in the encoding.
const (
	kindSenderValue byte = 1
	kindIDKCert     byte = 2
)

// ErrBadBBValue reports a value that is not a well-formed BB envelope.
var ErrBadBBValue = errors.New("bb: malformed value envelope")

// Sign-base domains.
const (
	senderDomain = "bb/sender"
	idkDomain    = "bb/idk"
)

// senderBase is the byte string the designated sender signs over its
// input value: (domain, tag, sender, SHA-256(v)), so ⟨v⟩_sender is a
// signature over the value's digest and costs the same at any |v|.
func senderBase(tag string, sender types.ProcessID, v types.Value) []byte {
	return wire.ValueBase(senderDomain, tag, int(sender), wire.Sum(v))
}

// idkBase is the byte string idk shares sign in phase j (⟨idk, j⟩_p),
// encoded in one exact-size allocation.
func idkBase(tag string, phase int) []byte {
	w := wire.NewWriterSize(wire.SizeBytes(len(idkDomain)) + wire.SizeBytes(len(tag)) + wire.SizeInt)
	w.PutString(idkDomain)
	w.PutString(tag)
	w.PutInt(phase)
	return w.Bytes()
}

// SenderValue is the decoded form of ⟨v⟩_sender.
type SenderValue struct {
	V   types.Value
	Sig sig.Signature
}

// IDKCert is the decoded form of QC_idk: t+1 processes declared they did
// not receive the sender's value in phase Phase.
type IDKCert struct {
	Phase int
	Cert  *threshold.Cert
}

// EncodeSenderValue serializes ⟨v⟩_sender into an opaque weak-BA value,
// in one exact-size allocation.
func EncodeSenderValue(sv SenderValue) types.Value {
	w := wire.NewWriterSize(1 + wire.SizeBytes(len(sv.V)) + wire.SizeBytes(len(sv.Sig)))
	w.PutByte(kindSenderValue)
	w.PutValue(sv.V)
	w.PutSig(sv.Sig)
	return types.Value(w.Bytes())
}

// EncodeIDKCert serializes QC_idk into an opaque weak-BA value, in one
// exact-size allocation.
func EncodeIDKCert(c IDKCert) types.Value {
	w := wire.NewWriterSize(1 + wire.SizeInt + wire.SizeCert(c.Cert))
	w.PutByte(kindIDKCert)
	w.PutInt(c.Phase)
	w.PutCert(c.Cert)
	return types.Value(w.Bytes())
}

// DecodeValue parses a BB envelope. Exactly one of the returns is non-nil
// on success. Its value, signature and certificate bytes are capped views
// into v (wire.NewViewReader), which is immutable like every value.
func DecodeValue(v types.Value) (*SenderValue, *IDKCert, error) {
	if v.IsBottom() {
		return nil, nil, fmt.Errorf("%w: bottom", ErrBadBBValue)
	}
	r := wire.NewViewReader(v)
	switch kind := r.Byte(); kind {
	case kindSenderValue:
		sv := &SenderValue{V: r.Value(), Sig: r.Sig()}
		if err := r.Close(); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadBBValue, err)
		}
		return sv, nil, nil
	case kindIDKCert:
		c := &IDKCert{Phase: r.Int(), Cert: r.Cert()}
		if err := r.Close(); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadBBValue, err)
		}
		return nil, c, nil
	default:
		return nil, nil, fmt.Errorf("%w: kind %d", ErrBadBBValue, kind)
	}
}

// Validator evaluates BB_valid (Section 5): a value is valid iff it is
// signed by the designated sender, or carries t+1 unique idk signatures.
//
// A Validator belongs to one BB machine (and the weak BA nested in it) and,
// like the machine, is not safe for concurrent use: it remembers the last
// envelope it validated and the last sign base it encoded, because a run
// validates the same envelope — the sender's value, then the vetted value,
// then the weak BA proposal — many times over. It is never shared between
// processes, so a verdict is only ever reused by the process that computed
// it.
type Validator struct {
	crypto *proto.Crypto
	tag    string
	sender types.ProcessID
	phases int
	small  *threshold.Scheme

	// The last envelope validated — the validator's own copy of its bytes,
	// so a caller changing the slice it passed gets a miss, never a stale
	// verdict (as in wire.Digester) — and the verdict, positive or
	// negative: validation is a pure function of the bytes. nil until a
	// non-empty envelope has been seen (an empty one is refused at its
	// first byte, there is nothing to remember).
	last   []byte
	lastOK bool

	// Sign bases already encoded: the sender base keyed on the value's
	// digest, and the idk base keyed on its phase. The sender value is not
	// kept: the verdict memo above already sees each envelope once, so a
	// value is hashed about once per machine without a second copy.
	senderMemo wire.BaseMemo
	idkPhase   int
	idkEnc     []byte
}

var _ valid.Predicate = (*Validator)(nil)

// NewValidator builds the BB_valid predicate for one BB instance. phases
// bounds the acceptable idk-certificate phase numbers.
func NewValidator(crypto *proto.Crypto, tag string, sender types.ProcessID, phases int) *Validator {
	bv := newValidator(crypto, tag, sender, phases)
	return &bv
}

// newValidator is NewValidator by value, for the machine that embeds it.
func newValidator(crypto *proto.Crypto, tag string, sender types.ProcessID, phases int) Validator {
	return Validator{
		crypto: crypto,
		tag:    tag,
		sender: sender,
		phases: phases,
		small:  crypto.Threshold(crypto.Params.SmallQuorum()),
	}
}

// Name implements valid.Predicate.
func (bv *Validator) Name() string { return "BB_valid" }

// Validate implements valid.Predicate. An envelope byte-identical to the
// previous call's gets that call's verdict; anything else is decoded and
// verified.
func (bv *Validator) Validate(v types.Value) bool {
	if bv.last == nil || !bytes.Equal(bv.last, v) {
		bv.lastOK = bv.validate(v)
		bv.last = append(bv.last[:0], v...)
	}
	return bv.lastOK
}

// validate evaluates BB_valid on v from scratch.
func (bv *Validator) validate(v types.Value) bool {
	sv, idk, err := DecodeValue(v)
	if err != nil {
		return false
	}
	if sv != nil {
		return bv.crypto.Scheme.Verify(bv.sender, bv.senderBase(sv.V), sv.Sig)
	}
	if idk.Phase < 1 || idk.Phase > bv.phases {
		return false
	}
	return bv.small.Verify(bv.idkBase(idk.Phase), idk.Cert)
}

// senderBase returns senderBase(tag, sender, v), re-encoding only when v's
// digest differs from the previous call's.
func (bv *Validator) senderBase(v types.Value) []byte {
	return bv.senderMemo.Get(senderDomain, bv.tag, int(bv.sender), wire.Sum(v))
}

// idkBase returns idkBase(tag, phase), re-encoding only when the phase
// differs from the previous call's.
func (bv *Validator) idkBase(phase int) []byte {
	if bv.idkEnc == nil || bv.idkPhase != phase {
		bv.idkPhase, bv.idkEnc = phase, idkBase(bv.tag, phase)
	}
	return bv.idkEnc
}

// SenderBase exposes the sender's sign base so the adversary library can
// construct protocol-conformant attacks (a Byzantine sender knows what it
// signs).
func SenderBase(tag string, sender types.ProcessID, v types.Value) []byte {
	return senderBase(tag, sender, v)
}

// envelopeSigCount counts the component signatures inside a BB value
// envelope, for proto.SigCarrier accounting. The simulator asks on every
// send it records, so the kind byte decides: a sender-signed envelope
// carries one signature and is never decoded (its value would be copied
// for nothing); only an idk certificate is, for its signer count.
func envelopeSigCount(v types.Value) int {
	if len(v) == 0 {
		return 0
	}
	switch v[0] {
	case kindSenderValue:
		return 1
	case kindIDKCert:
		if _, idk, err := DecodeValue(v); err == nil {
			return idk.Cert.Count()
		}
	}
	return 0
}
