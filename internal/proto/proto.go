// Package proto defines the execution model shared by every protocol in
// the library and by both runtimes (the deterministic simulator and the
// TCP transport).
//
// A protocol is a Machine: a deterministic state machine driven by ticks.
// One tick equals the synchrony bound δ. Machines exchange Payloads inside
// sessions — "/"-separated paths that let a parent protocol host
// sub-protocols (BB hosts weak BA, weak BA hosts the fallback) without the
// runtimes knowing anything about the nesting.
//
// # The message path
//
// Every message crosses a session tree up to six machines deep, so it is
// written once on the way in and once on the way out. Outbound, the
// runtime owns the only send buffer: Begin and Tick append to it, Sub
// prefixes just the tail its child appended, Mux threads it through its
// children. Inbound, the inbox is scratch for the call: Mux sorts it by
// child into an arena borrowed for that call, SplitChild compacts one
// nested child's frames to its front, and whoever keeps a message copies
// the value. Machine states the retention contract both sides rely on;
// DESIGN.md §4, "The message path", says who owns which buffer.
package proto

import (
	"strings"
	"unsafe"

	"adaptiveba/internal/types"
)

// Payload is one protocol message body. Implementations are immutable
// value-like structs that know their cost in the paper's word model.
type Payload interface {
	// Type returns a short stable name, e.g. "bb/help_req".
	Type() string
	// Words returns the message's cost: the number of words it carries.
	// The runtime clamps this to at least 1 (every message costs a word).
	Words() int
}

// SigCarrier is an optional Payload extension reporting how many
// component signatures the message transports (a threshold certificate
// counts as its signer count, an individual signature as 1). This is the
// measure behind Dolev–Reischuk's Ω(nt)-signatures lower bound: threshold
// schemes compact many signatures into one word, so word complexity can
// be O(n(f+1)) while Θ(nt) signatures still flow through the network.
type SigCarrier interface {
	SigCount() int
}

// Incoming is a received message, addressed to the machine's session.
type Incoming struct {
	From    types.ProcessID
	Session string // path relative to the receiving machine ("" = for me)
	Payload Payload
}

// Outgoing is a message to send. Session is relative to the sending
// machine; parents prefix it while routing upward.
type Outgoing struct {
	To      types.ProcessID
	Session string
	Payload Payload
}

// Machine is a deterministic, single-threaded protocol instance for one
// process. The runtime calls Begin exactly once, then Tick once per tick
// in increasing tick order. Machines never block and never spawn
// goroutines; all state transitions happen inside these calls. Distinct
// machines may be stepped concurrently (they share no state), but no
// single machine ever sees overlapping calls.
//
// Messages are written once on the way in and once on the way out, and
// neither side keeps the other's slice:
//
//   - outs is append-only, in the strconv.AppendInt idiom: Begin and Tick
//     append their sends to the caller's buffer and return it extended.
//     The callee owns only the tail it appends — it neither reads nor
//     writes outs[:len(outs)] as given — and any call that is handed outs
//     may reallocate it, so the returned slice is the only valid one
//     afterwards. The caller consumes the tail before the next call and
//     may then reuse the buffer.
//   - inbox is scratch for the duration of the call: the callee may
//     overwrite it (routing compacts it in place), and the caller must
//     not read it afterwards. It is the caller's array again once the
//     call returns; keep the Incoming values, never the slice.
type Machine interface {
	// Begin starts the machine at tick now, appending its initial sends.
	Begin(now types.Tick, outs []Outgoing) []Outgoing
	// Tick delivers the messages that arrived at tick now and appends the
	// sends the machine performs at this tick.
	Tick(now types.Tick, inbox []Incoming, outs []Outgoing) []Outgoing
	// Output returns the machine's decision, if reached. For agreement
	// protocols the value may legitimately be types.Bottom with ok=true.
	Output() (types.Value, bool)
	// Done reports that the machine has decided and has no pending
	// obligations (it will send nothing more unless new messages arrive
	// that re-activate it, e.g. a late fallback certificate).
	Done() bool
}

// AppendBroadcast appends one message per process, including the sender
// itself (self-delivery is free: runtimes do not count it).
func AppendBroadcast(outs []Outgoing, params types.Params, session string, p Payload) []Outgoing {
	for i := 0; i < params.N; i++ {
		outs = append(outs, Outgoing{To: types.ProcessID(i), Session: session, Payload: p})
	}
	return outs
}

// PayloadKey identifies one boxed payload instance: the interface's type
// and data words, read without dereferencing. The messages AppendBroadcast
// appends share one key, so a runtime can price or encode a broadcast
// once. Compare keys only between payloads reachable from the same
// slice, so that address reuse cannot alias two distinct live payloads.
// Interface equality (==) would be wrong here: payloads legitimately
// contain slices (values, signatures), which makes them non-comparable.
type PayloadKey [2]uintptr

// KeyOf returns p's PayloadKey.
func KeyOf(p Payload) PayloadKey {
	return *(*PayloadKey)(unsafe.Pointer(&p))
}

// AppendUnicast appends a single send.
func AppendUnicast(outs []Outgoing, to types.ProcessID, session string, p Payload) []Outgoing {
	return append(outs, Outgoing{To: to, Session: session, Payload: p})
}

// SplitChild partitions inbox for a machine that hosts one nested child
// under the session segment name: frames addressed to the child are
// compacted to the front of inbox with the segment stripped and returned,
// every other frame is handed to ingest — both in inbox order. The write
// index never passes the read index, so the split needs no second slice.
func SplitChild(inbox []Incoming, name string, ingest func(Incoming)) []Incoming {
	k := 0
	for _, in := range inbox {
		if head, rest := SplitSession(in.Session); head == name {
			in.Session = rest
			inbox[k] = in
			k++
		} else {
			ingest(in)
		}
	}
	return inbox[:k]
}

// JoinSession prefixes child-relative session paths with the child's name.
func JoinSession(name, rest string) string {
	if rest == "" {
		return name
	}
	return name + "/" + rest
}

// SplitSession splits a path into its first segment and the remainder.
func SplitSession(s string) (head, rest string) {
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// RoundClock maps ticks to 1-based protocol rounds of fixed duration.
// Round r occupies ticks [Start+(r-1)*Dur, Start+r*Dur). With Dur = 1 this
// is the paper's lock-step round model; the fallback algorithm runs with
// Dur = 2 (rounds of 2δ, Lemma 18).
type RoundClock struct {
	Start types.Tick
	Dur   int
}

// NewRoundClock starts a clock at tick start with the given round duration.
func NewRoundClock(start types.Tick, dur int) RoundClock {
	if dur < 1 {
		dur = 1
	}
	return RoundClock{Start: start, Dur: dur}
}

// RoundAt returns the round that tick now falls in (0 if before Start).
func (c RoundClock) RoundAt(now types.Tick) types.Round {
	if now < c.Start {
		return 0
	}
	return types.Round((now-c.Start)/types.Tick(c.Dur)) + 1
}

// BoundaryAt reports whether now is the first tick of a round, and which.
// At the boundary of round r (r >= 2), all honest round-(r-1) messages
// have been delivered, so machines act for round r at its boundary.
func (c RoundClock) BoundaryAt(now types.Tick) (types.Round, bool) {
	if now < c.Start {
		return 0, false
	}
	off := now - c.Start
	if c.Dur == 1 { // every tick starts a round; BB and weak BA ask every tick
		return types.Round(off) + 1, true
	}
	if off%types.Tick(c.Dur) != 0 {
		return 0, false
	}
	return types.Round(off/types.Tick(c.Dur)) + 1, true
}

// StartOf returns the first tick of round r.
func (c RoundClock) StartOf(r types.Round) types.Tick {
	return c.Start + types.Tick(int(r-1)*c.Dur)
}
