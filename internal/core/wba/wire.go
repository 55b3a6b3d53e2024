package wba

import (
	"adaptiveba/internal/proto"
	"adaptiveba/internal/wire"
)

// RegisterWire registers this package's payload codecs. The nested
// fallback session reuses the Dolev–Strong relay codec, which the caller
// registers separately (the transport setup registers every protocol).
func RegisterWire(reg *wire.Registry) {
	reg.MustRegister(
		wire.Codec{
			Type: Propose{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Propose{Phase: r.Int(), V: r.Value()}, r.Err()
			},
		},
		wire.Codec{
			Type: Vote{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Vote{Phase: r.Int(), V: r.Value(), Share: r.Sig()}, r.Err()
			},
		},
		wire.Codec{
			Type: CommitInfo{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return CommitInfo{Phase: r.Int(), V: r.Value(), Cert: r.Cert(), Level: r.Int()}, r.Err()
			},
		},
		wire.Codec{
			Type: Commit{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Commit{Phase: r.Int(), V: r.Value(), Cert: r.Cert(), Level: r.Int()}, r.Err()
			},
		},
		wire.Codec{
			Type: Decide{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Decide{Phase: r.Int(), V: r.Value(), Share: r.Sig()}, r.Err()
			},
		},
		wire.Codec{
			Type: Finalized{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Finalized{Phase: r.Int(), V: r.Value(), Cert: r.Cert()}, r.Err()
			},
		},
		wire.Codec{
			Type: HelpReq{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return HelpReq{Share: r.Sig()}, r.Err()
			},
		},
		wire.Codec{
			Type: Help{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Help{V: r.Value(), Proof: r.Cert(), ProofPhase: r.Int()}, r.Err()
			},
		},
		wire.Codec{
			Type: FallbackCert{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return FallbackCert{Cert: r.Cert(), V: r.Value(), Proof: r.Cert(), ProofPhase: r.Int()}, r.Err()
			},
		},
	)
}

// PutBody implements wire.Body.
func (m Propose) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
	w.PutValue(m.V)
}

// PutBody implements wire.Body.
func (m Vote) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
	w.PutValue(m.V)
	w.PutSig(m.Share)
}

// PutBody implements wire.Body.
func (m CommitInfo) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
	w.PutValue(m.V)
	w.PutCert(m.Cert)
	w.PutInt(m.Level)
}

// PutBody implements wire.Body.
func (m Commit) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
	w.PutValue(m.V)
	w.PutCert(m.Cert)
	w.PutInt(m.Level)
}

// PutBody implements wire.Body.
func (m Decide) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
	w.PutValue(m.V)
	w.PutSig(m.Share)
}

// PutBody implements wire.Body.
func (m Finalized) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
	w.PutValue(m.V)
	w.PutCert(m.Cert)
}

// PutBody implements wire.Body.
func (m HelpReq) PutBody(w *wire.Writer) {
	w.PutSig(m.Share)
}

// PutBody implements wire.Body.
func (m Help) PutBody(w *wire.Writer) {
	w.PutValue(m.V)
	w.PutCert(m.Proof)
	w.PutInt(m.ProofPhase)
}

// PutBody implements wire.Body.
func (m FallbackCert) PutBody(w *wire.Writer) {
	w.PutCert(m.Cert)
	w.PutValue(m.V)
	w.PutCert(m.Proof)
	w.PutInt(m.ProofPhase)
}
