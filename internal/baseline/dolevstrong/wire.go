package dolevstrong

import (
	"fmt"

	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// RegisterWire registers this package's payload codecs so the TCP
// transport can decode them.
func RegisterWire(reg *wire.Registry) {
	reg.MustRegister(wire.Codec{
		Type: Relay{}.Type(),
		Decode: func(r *wire.Reader) (proto.Payload, error) {
			out := Relay{Sender: r.Process(), V: r.Value()}
			n := r.Int()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if n < 0 || n > wire.MaxChunk/8 {
				return nil, fmt.Errorf("dolevstrong: implausible chain length %d", n)
			}
			out.Chain = Chain{
				Signers: make([]types.ProcessID, n),
				Sigs:    make([]sig.Signature, n),
			}
			for i := 0; i < n; i++ {
				out.Chain.Signers[i] = r.Process()
				out.Chain.Sigs[i] = r.Sig()
			}
			return out, r.Err()
		},
	})
}

// PutBody implements wire.Body.
func (r Relay) PutBody(w *wire.Writer) {
	w.PutProcess(r.Sender)
	w.PutValue(r.V)
	w.PutInt(r.Chain.Len())
	for i := range r.Chain.Signers {
		w.PutProcess(r.Chain.Signers[i])
		w.PutSig(r.Chain.Sigs[i])
	}
}
