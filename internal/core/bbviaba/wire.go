package bbviaba

import (
	"adaptiveba/internal/proto"
	"adaptiveba/internal/wire"
)

// RegisterWire registers this package's payload codec (the nested strong
// BA registers its own).
func RegisterWire(reg *wire.Registry) {
	reg.MustRegister(wire.Codec{
		Type: SenderBit{}.Type(),
		Decode: func(r *wire.Reader) (proto.Payload, error) {
			return SenderBit{V: r.Value(), Sig: r.Sig()}, r.Err()
		},
	})
}

// PutBody implements wire.Body.
func (m SenderBit) PutBody(w *wire.Writer) {
	w.PutValue(m.V)
	w.PutSig(m.Sig)
}
