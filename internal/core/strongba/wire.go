package strongba

import (
	"adaptiveba/internal/proto"
	"adaptiveba/internal/wire"
)

// RegisterWire registers this package's payload codecs.
func RegisterWire(reg *wire.Registry) {
	reg.MustRegister(
		wire.Codec{
			Type: InputShare{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return InputShare{V: r.Value(), Share: r.Sig()}, r.Err()
			},
		},
		wire.Codec{
			Type: Propose{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Propose{V: r.Value(), Cert: r.Cert()}, r.Err()
			},
		},
		wire.Codec{
			Type: DecideShare{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return DecideShare{V: r.Value(), Share: r.Sig()}, r.Err()
			},
		},
		wire.Codec{
			Type: DecideMsg{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return DecideMsg{V: r.Value(), Cert: r.Cert()}, r.Err()
			},
		},
		wire.Codec{
			Type: Fallback{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Fallback{V: r.Value(), Proof: r.Cert()}, r.Err()
			},
		},
	)
}

// PutBody implements wire.Body.
func (m InputShare) PutBody(w *wire.Writer) {
	w.PutValue(m.V)
	w.PutSig(m.Share)
}

// PutBody implements wire.Body.
func (m Propose) PutBody(w *wire.Writer) {
	w.PutValue(m.V)
	w.PutCert(m.Cert)
}

// PutBody implements wire.Body.
func (m DecideShare) PutBody(w *wire.Writer) {
	w.PutValue(m.V)
	w.PutSig(m.Share)
}

// PutBody implements wire.Body.
func (m DecideMsg) PutBody(w *wire.Writer) {
	w.PutValue(m.V)
	w.PutCert(m.Cert)
}

// PutBody implements wire.Body.
func (m Fallback) PutBody(w *wire.Writer) {
	w.PutValue(m.V)
	w.PutCert(m.Proof)
}
