// Package types holds the primitive vocabulary shared by every layer of the
// library: process identities, protocol values, time units, and the run
// parameters (n, t) with the quorum arithmetic the paper's protocols rely
// on.
package types

import (
	"encoding/hex"
	"errors"
	"fmt"
)

// ProcessID identifies one of the n processes in the static set Π.
// IDs are dense integers in [0, n).
type ProcessID int

// NilProcess is the zero-ish sentinel for "no process". Valid IDs are >= 0.
const NilProcess ProcessID = -1

// String renders the ID as pN, e.g. p3.
func (p ProcessID) String() string {
	if p == NilProcess {
		return "p?"
	}
	return fmt.Sprintf("p%d", int(p))
}

// Tick is the simulator's unit of time. One tick equals the known message
// delay bound δ: a message sent at tick T is delivered no later than tick
// T+1. Protocol rounds span one or more ticks (the fallback runs with
// rounds of 2δ, i.e. two ticks).
type Tick int64

// Round numbers a protocol's synchronous rounds, starting at 1 to match
// the paper's pseudocode.
type Round int

// Errors reported by parameter validation.
var (
	ErrBadN        = errors.New("n must be at least 3")
	ErrBadT        = errors.New("t must satisfy 0 <= t and n >= 2t+1")
	ErrBadProcess  = errors.New("process id out of range")
	ErrTooManyCorr = errors.New("more corruptions than t")
)

// Params captures a run's resilience parameters. The paper fixes
// n = 2t + 1; NewParams derives the maximal such t, while Custom allows
// any n >= 2t+1 (used by ablation experiments).
type Params struct {
	N int // total number of processes
	T int // maximum number of Byzantine processes tolerated
}

// NewParams returns Params with the optimal resilience t = floor((n-1)/2),
// i.e. n = 2t+1 for odd n.
func NewParams(n int) (Params, error) {
	if n < 3 {
		return Params{}, ErrBadN
	}
	return Params{N: n, T: (n - 1) / 2}, nil
}

// Custom returns Params with an explicit t, validating n >= 2t+1.
func Custom(n, t int) (Params, error) {
	if n < 3 {
		return Params{}, ErrBadN
	}
	if t < 0 || n < 2*t+1 {
		return Params{}, ErrBadT
	}
	return Params{N: n, T: t}, nil
}

// ParamsFor is the one rule that turns a configured (n, t) into Params:
// t = 0 selects the default floor((n-1)/2) (NewParams), any other t must
// satisfy Custom's n >= 2t+1 — so a negative t is an error, never the
// default.
func ParamsFor(n, t int) (Params, error) {
	if t == 0 {
		return NewParams(n)
	}
	return Custom(n, t)
}

// Valid reports whether the parameters satisfy the model's constraints.
func (p Params) Valid() bool {
	return p.N >= 3 && p.T >= 0 && p.N >= 2*p.T+1
}

// Quorum is the paper's key threshold ⌈(n+t+1)/2⌉ (Section 6): any two
// certificates with this many unique signers intersect in at least one
// correct process even at resilience n = 2t+1.
func (p Params) Quorum() int {
	return (p.N + p.T + 2) / 2 // ceil((n+t+1)/2)
}

// SmallQuorum is t+1: enough to guarantee at least one correct signer.
func (p Params) SmallQuorum() int {
	return p.T + 1
}

// FallbackThreshold is (n-t-1)/2. Lemma 6: if f is strictly below this,
// correct processes never run the fallback algorithm.
func (p Params) FallbackThreshold() int {
	return (p.N - p.T - 1) / 2
}

// CheckProcess validates an ID against the parameter set.
func (p Params) CheckProcess(id ProcessID) error {
	if id < 0 || int(id) >= p.N {
		return fmt.Errorf("%w: %v with n=%d", ErrBadProcess, id, p.N)
	}
	return nil
}

// Leader returns the rotating leader of phase j (1-indexed), matching the
// pseudocode's "leader <- p_{j mod n}".
func (p Params) Leader(phase int) ProcessID {
	m := phase % p.N
	if m < 0 {
		m += p.N
	}
	return ProcessID(m)
}

// NextLed returns the first phase j >= from that id leads.
func (p Params) NextLed(id ProcessID, from int) int {
	return from + ((int(id)-from)%p.N+p.N)%p.N
}

// AllProcesses returns the dense ID list [0, n).
func (p Params) AllProcesses() []ProcessID {
	ids := make([]ProcessID, p.N)
	for i := range ids {
		ids[i] = ProcessID(i)
	}
	return ids
}

// Value is a protocol value from the application domain. A nil Value is the
// distinguished ⊥ (bottom). Values are treated as immutable: callers must
// Clone before mutating shared bytes.
type Value []byte

// Bottom is the ⊥ value.
var Bottom Value

// IsBottom reports whether v is ⊥.
func (v Value) IsBottom() bool { return len(v) == 0 }

// Equal compares two values byte-wise; two ⊥ values are equal.
func (v Value) Equal(o Value) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the value.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	c := make(Value, len(v))
	copy(c, v)
	return c
}

// String renders the value for logs: ⊥, a short hex prefix, or printable
// ASCII verbatim.
func (v Value) String() string {
	if v.IsBottom() {
		return "⊥"
	}
	printable := true
	for _, b := range v {
		if b < 0x20 || b > 0x7e {
			printable = false
			break
		}
	}
	if printable && len(v) <= 24 {
		return string(v)
	}
	h := hex.EncodeToString(v)
	if len(h) > 16 {
		h = h[:16] + "…"
	}
	return "0x" + h
}

// Binary values for the strong BA protocol (Algorithm 5).
var (
	Zero = Value{0}
	One  = Value{1}
)

// BinaryValue converts a bool to the canonical binary Value.
func BinaryValue(b bool) Value {
	if b {
		return One
	}
	return Zero
}

// IsBinary reports whether v is one of the two canonical binary values.
func (v Value) IsBinary() bool {
	return v.Equal(Zero) || v.Equal(One)
}
