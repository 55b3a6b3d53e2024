package attacks

import (
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// LateCertRelease is a freshness attack on the weak BA fallback path: the
// adversary passively collects help-request shares during the run and, if
// it ever holds t+1, releases the fallback certificate long after every
// correct process has decided and gone quiet. Correct processes must
// re-activate, echo the certificate, run A_fallback — and still decide
// the same value they already decided (Lemma 19).
type LateCertRelease struct {
	adversary.Core
	// Tag must match the weak BA instance's tag.
	Tag string
	// ReleaseTick is when the certificate is released.
	ReleaseTick types.Tick

	shares map[types.ProcessID]wba.HelpReq
	sent   bool
}

var _ sim.Adversary = (*LateCertRelease)(nil)

// NewLateCertRelease corrupts ids (their own signatures count towards the
// certificate) and schedules the release.
func NewLateCertRelease(tag string, release types.Tick, ids ...types.ProcessID) *LateCertRelease {
	a := &LateCertRelease{Tag: tag, ReleaseTick: release, shares: make(map[types.ProcessID]wba.HelpReq)}
	for _, id := range ids {
		a.Schedule = append(a.Schedule, sim.Corruption{ID: id})
	}
	return a
}

// Observe harvests help-request shares broadcast by correct processes.
func (a *LateCertRelease) Observe(_ types.Tick, _ types.ProcessID, inbox []proto.Incoming) {
	for _, in := range inbox {
		if hr, ok := in.Payload.(wba.HelpReq); ok {
			a.shares[in.From] = hr
		}
	}
}

// Act implements sim.Adversary: at the release tick, combine harvested
// and own shares into the fallback certificate and broadcast it.
func (a *LateCertRelease) Act(now types.Tick, _ []sim.Message) []sim.Message {
	if a.sent || now != a.ReleaseTick {
		return nil
	}
	a.sent = true
	small := a.Env.Crypto.Threshold(a.Env.Params.SmallQuorum())
	base := wba.HelpReqBase(a.Tag)

	var shares []threshold.Share
	for id, hr := range a.shares {
		shares = append(shares, threshold.Share{Signer: id, Sig: hr.Share})
	}
	for _, c := range a.Schedule {
		sg, err := a.Env.Crypto.Signer(c.ID).Sign(base)
		if err != nil {
			continue
		}
		shares = append(shares, threshold.Share{Signer: c.ID, Sig: sg})
	}
	cert, err := small.Combine(base, shares)
	if err != nil {
		return nil // fewer than t+1 distinct shares ever existed
	}
	payload := wba.FallbackCert{Cert: cert}
	var msgs []sim.Message
	from := a.Schedule[0].ID
	for i := 0; i < a.Env.Params.N; i++ {
		msgs = append(msgs, sim.Message{From: from, To: types.ProcessID(i), Payload: payload})
	}
	return msgs
}

// Quiescent keeps the engine alive until the release (plus the fallback's
// duration) has played out.
func (a *LateCertRelease) Quiescent(now types.Tick) bool {
	return now > a.ReleaseTick+types.Tick(a.Env.Params.T*8+40)
}
