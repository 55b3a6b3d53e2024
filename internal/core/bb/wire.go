package bb

import (
	"adaptiveba/internal/proto"
	"adaptiveba/internal/wire"
)

// RegisterWire registers this package's payload codecs. The nested weak
// BA and fallback codecs are registered by their own packages.
func RegisterWire(reg *wire.Registry) {
	reg.MustRegister(
		wire.Codec{
			Type: SenderMsg{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return SenderMsg{V: r.Value(), Sig: r.Sig()}, r.Err()
			},
		},
		wire.Codec{
			Type: HelpReq{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return HelpReq{Phase: r.Int()}, r.Err()
			},
		},
		wire.Codec{
			Type: Reply{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Reply{Phase: r.Int(), Val: r.Value()}, r.Err()
			},
		},
		wire.Codec{
			Type: IdkShare{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return IdkShare{Phase: r.Int(), Share: r.Sig()}, r.Err()
			},
		},
		wire.Codec{
			Type: Vetted{}.Type(),
			Decode: func(r *wire.Reader) (proto.Payload, error) {
				return Vetted{Phase: r.Int(), Val: r.Value()}, r.Err()
			},
		},
	)
}

// PutBody implements wire.Body.
func (m SenderMsg) PutBody(w *wire.Writer) {
	w.PutValue(m.V)
	w.PutSig(m.Sig)
}

// PutBody implements wire.Body.
func (m HelpReq) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
}

// PutBody implements wire.Body.
func (m Reply) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
	w.PutValue(m.Val)
}

// PutBody implements wire.Body.
func (m IdkShare) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
	w.PutSig(m.Share)
}

// PutBody implements wire.Body.
func (m Vetted) PutBody(w *wire.Writer) {
	w.PutInt(m.Phase)
	w.PutValue(m.Val)
}
