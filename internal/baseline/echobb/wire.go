package echobb

import (
	"adaptiveba/internal/proto"
	"adaptiveba/internal/wire"
)

// RegisterWire registers this package's payload codecs.
func RegisterWire(reg *wire.Registry) {
	reg.MustRegister(wire.Codec{
		Type: Echo{}.Type(),
		Decode: func(r *wire.Reader) (proto.Payload, error) {
			return Echo{V: r.Value(), Sig: r.Sig()}, r.Err()
		},
	})
}

// PutBody implements wire.Body.
func (m Echo) PutBody(w *wire.Writer) {
	w.PutValue(m.V)
	w.PutSig(m.Sig)
}
