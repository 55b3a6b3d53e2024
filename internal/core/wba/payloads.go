package wba

import (
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// Sign bases. Every signature and threshold share in the protocol covers
// one of these byte strings; the invocation Tag domain-separates parallel
// or nested instances, and the phase number binds certificates to the
// phase that produced them (the commit_level mechanism of Algorithm 4).

// Sign-base domains.
const (
	voteDomain    = "wba/vote"
	decideDomain  = "wba/decide"
	helpReqDomain = "wba/help_req"
)

// voteBase is what vote shares sign: a commit certificate for (v, level j)
// is a threshold certificate over voteBase(tag, j, v) = (domain, tag, j,
// SHA-256(v)), the same length at any |v|.
func voteBase(tag string, phase int, v types.Value) []byte {
	return wire.ValueBase(voteDomain, tag, phase, wire.Sum(v))
}

// decideBase is what decide shares sign: a finalize certificate for (v, j)
// is a threshold certificate over decideBase(tag, j, v), which commits to
// v's digest as voteBase does.
func decideBase(tag string, phase int, v types.Value) []byte {
	return wire.ValueBase(decideDomain, tag, phase, wire.Sum(v))
}

// helpReqBase is what help_req shares sign: the fallback certificate is a
// (t+1, n)-threshold certificate over it.
func helpReqBase(tag string) []byte {
	w := wire.NewWriterSize(wire.SizeBytes(len(helpReqDomain)) + wire.SizeBytes(len(tag)))
	w.PutString(helpReqDomain)
	w.PutString(tag)
	return w.Bytes()
}

// VoteBase, DecideBase, and HelpReqBase expose the sign bases so the
// adversary library can construct protocol-conformant attacks (a real
// Byzantine process knows the protocol, so hiding the bases would only
// weaken the attack surface the tests exercise).

// VoteBase is the byte string vote shares sign in a phase.
func VoteBase(tag string, phase int, v types.Value) []byte { return voteBase(tag, phase, v) }

// DecideBase is the byte string decide shares sign in a phase.
func DecideBase(tag string, phase int, v types.Value) []byte { return decideBase(tag, phase, v) }

// HelpReqBase is the byte string help requests sign.
func HelpReqBase(tag string) []byte { return helpReqBase(tag) }

// Propose is the phase leader's round-1 message ⟨propose, v, j⟩ (Alg. 4
// line 32). Sender authenticity comes from the reliable links.
type Propose struct {
	Phase int
	V     types.Value
}

// Type implements proto.Payload.
func (Propose) Type() string { return "wba/propose" }

// Words implements proto.Payload: one value, constant size.
func (Propose) Words() int { return 1 }

// Vote is a process's round-2 answer ⟨vote, v, j⟩ (line 34): a threshold
// share over voteBase.
type Vote struct {
	Phase int
	V     types.Value
	Share sig.Signature
}

// Type implements proto.Payload.
func (Vote) Type() string { return "wba/vote" }

// Words implements proto.Payload.
func (Vote) Words() int { return 1 }

// CommitInfo is the alternative round-2 answer for processes that already
// committed: ⟨commit, commit, commit_proof, commit_level, j⟩ (line 36).
type CommitInfo struct {
	Phase int
	V     types.Value
	Cert  *threshold.Cert // over voteBase(tag, Level, V)
	Level int
}

// Type implements proto.Payload.
func (CommitInfo) Type() string { return "wba/commit_info" }

// Words implements proto.Payload: a value and a certificate, one word.
func (CommitInfo) Words() int { return 1 }

// Commit is the leader's round-3 broadcast: a commit certificate at some
// level (lines 39 and 42).
type Commit struct {
	Phase int
	V     types.Value
	Cert  *threshold.Cert // over voteBase(tag, Level, V)
	Level int
}

// Type implements proto.Payload.
func (Commit) Type() string { return "wba/commit" }

// Words implements proto.Payload.
func (Commit) Words() int { return 1 }

// Decide is a process's round-4 share ⟨decide, v, j⟩ (line 44) over
// decideBase.
type Decide struct {
	Phase int
	V     types.Value
	Share sig.Signature
}

// Type implements proto.Payload.
func (Decide) Type() string { return "wba/decide" }

// Words implements proto.Payload.
func (Decide) Words() int { return 1 }

// Finalized is the leader's round-5 broadcast ⟨finalized, v, QC, j⟩
// (line 51): the decision certificate.
type Finalized struct {
	Phase int
	V     types.Value
	Cert  *threshold.Cert // over decideBase(tag, Phase, V)
}

// Type implements proto.Payload.
func (Finalized) Type() string { return "wba/finalized" }

// Words implements proto.Payload.
func (Finalized) Words() int { return 1 }

// HelpReq is the post-phases broadcast of processes that have not decided
// (Alg. 3 line 6): a threshold share over helpReqBase.
type HelpReq struct {
	Share sig.Signature
}

// Type implements proto.Payload.
func (HelpReq) Type() string { return "wba/help_req" }

// Words implements proto.Payload.
func (HelpReq) Words() int { return 1 }

// Help answers a help request with the decided value and its finalize
// certificate (line 8).
type Help struct {
	V          types.Value
	Proof      *threshold.Cert // over decideBase(tag, ProofPhase, V)
	ProofPhase int
}

// Type implements proto.Payload.
func (Help) Type() string { return "wba/help" }

// Words implements proto.Payload.
func (Help) Words() int { return 1 }

// FallbackCert announces the fallback: a (t+1)-certificate over
// helpReqBase plus the sender's decision evidence, if any (lines 11, 22).
type FallbackCert struct {
	Cert       *threshold.Cert // over helpReqBase(tag)
	V          types.Value     // bu_decision; may be ⊥/undecided evidence-free
	Proof      *threshold.Cert // finalize cert for V, or nil
	ProofPhase int
}

// Type implements proto.Payload.
func (FallbackCert) Type() string { return "wba/fallback_cert" }

// Words implements proto.Payload: two certificates and a value, still a
// constant number of words.
func (FallbackCert) Words() int { return 2 }

// Component-signature accounting (proto.SigCarrier): certificates count
// as their signer set size, plain shares as one. This feeds the
// Dolev–Reischuk signature-count experiment — the words stay O(n(f+1))
// while Θ(nt) signatures travel inside the certificates.

// SigCount implements proto.SigCarrier.
func (Propose) SigCount() int { return 0 }

// SigCount implements proto.SigCarrier.
func (Vote) SigCount() int { return 1 }

// SigCount implements proto.SigCarrier.
func (m CommitInfo) SigCount() int { return m.Cert.Count() }

// SigCount implements proto.SigCarrier.
func (m Commit) SigCount() int { return m.Cert.Count() }

// SigCount implements proto.SigCarrier.
func (Decide) SigCount() int { return 1 }

// SigCount implements proto.SigCarrier.
func (m Finalized) SigCount() int { return m.Cert.Count() }

// SigCount implements proto.SigCarrier.
func (HelpReq) SigCount() int { return 1 }

// SigCount implements proto.SigCarrier.
func (m Help) SigCount() int { return m.Proof.Count() }

// SigCount implements proto.SigCarrier.
func (m FallbackCert) SigCount() int { return m.Cert.Count() + m.Proof.Count() }
