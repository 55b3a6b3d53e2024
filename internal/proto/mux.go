package proto

import (
	"slices"
	"sync"

	"adaptiveba/internal/types"
)

// Mux hosts many child machines, each under its own session name, and
// demultiplexes a shared inbox to them in a single pass. It is the
// session-keyed machine lifecycle used by parents that run whole fleets
// of concurrent sub-protocols (the multi-session engine's agreement
// instances and log slots, an ACS round's broadcasts and votes, the
// fallback's broadcasts): children are Added when their session
// is admitted, stepped while live whenever they have mail or are due
// (Sub), and Retired when the parent no longer owes them service. A Mux
// is a Waker: its wake is its earliest live child's.
//
// Compared to calling Sub.Route once per child — O(children × inbox) —
// Mux groups the whole inbox by leading session segment with one stable
// counting sort on the child index, into an arena it borrows for the
// duration of the Tick (see routeArena), so the steady-state tick path
// allocates nothing and a Mux owns no message memory between ticks.
//
// Message order is preserved exactly as serial per-child routing would
// deliver it: within one session, messages keep their inbox order, and
// children are stepped in insertion order.
type Mux struct {
	names map[string]int
	subs  []*Sub // insertion order; nil once retired

	unrouted int64
	late     int64
}

// routeArena is the scratch of one Mux.Tick. Muxes are short-lived (one
// per ACS round, one per fallback) and nest, so the arena belongs to the
// call, not to the Mux: Tick takes one from the pool, every nested Mux
// stepped underneath takes its own, and each is cleared and returned
// before its Tick returns. Nothing in it is keyed to a Mux or outlives
// the call, so a Mux created mid-run routes through an already grown
// arena and the pool pins no payload.
type routeArena struct {
	frames []Incoming // the inbox grouped by child, inbox order kept
	child  []int32    // per inbox frame: its child's index, -1 if dropped
	end    []int32    // per child: frame count, then scatter cursor, then region end
}

var routeArenas = sync.Pool{New: func() any { return new(routeArena) }}

// NewMux returns an empty multiplexer.
func NewMux() *Mux {
	return &Mux{names: make(map[string]int)}
}

// Get returns the child registered under name (nil if unknown or
// retired).
func (x *Mux) Get(name string) *Sub {
	if i, ok := x.names[name]; ok {
		return x.subs[i]
	}
	return nil
}

// Add registers machine under the session segment name and returns its
// Sub. The caller decides when to Begin it (Sub buffers earlier
// deliveries). Adding a name twice, or adding after Retire under the
// same name, panics: session names identify one lifecycle.
func (x *Mux) Add(name string, m Machine) *Sub {
	if _, dup := x.names[name]; dup {
		panic("proto: duplicate mux session " + name)
	}
	sub := NewSub(name, m)
	x.names[name] = len(x.subs)
	x.subs = append(x.subs, sub)
	return sub
}

// Retire drops the child registered under name: it is no longer stepped,
// later messages addressed to it are counted as late and discarded, and
// its machine reference is released. Retiring an unknown or
// already-retired name is a no-op.
func (x *Mux) Retire(name string) {
	if i, ok := x.names[name]; ok {
		x.subs[i] = nil
	}
}

// Unrouted returns the number of messages addressed to sessions never
// registered (e.g. traffic for a not-yet-admitted instance).
func (x *Mux) Unrouted() int64 { return x.unrouted }

// Late returns the number of messages addressed to retired sessions.
func (x *Mux) Late() int64 { return x.late }

// Tick groups inbox by leading session segment (stripped in place: the
// inbox is the callee's scratch), then hands every live child its group
// in insertion order, threading outs through them; a child without mail
// is stepped only if it is due. An empty inbox skips the sort and the
// arena.
func (x *Mux) Tick(now types.Tick, inbox []Incoming, outs []Outgoing) []Outgoing {
	if len(inbox) == 0 {
		for _, sub := range x.subs {
			if sub != nil {
				outs = sub.Tick(now, nil, outs)
			}
		}
		return outs
	}
	a := routeArenas.Get().(*routeArena)
	child := slices.Grow(a.child[:0], len(inbox))[:len(inbox)]
	end := slices.Grow(a.end[:0], len(x.subs))[:len(x.subs)]
	clear(end)
	for j := range inbox {
		head, rest := SplitSession(inbox[j].Session)
		i, ok := x.names[head]
		switch {
		case !ok:
			x.unrouted++
			i = -1
		case x.subs[i] == nil:
			x.late++
			i = -1
		default:
			inbox[j].Session = rest
			end[i]++
		}
		child[j] = int32(i)
	}
	var routed int32
	for i, c := range end {
		end[i] = routed
		routed += c
	}
	frames := slices.Grow(a.frames[:0], int(routed))[:routed]
	for j, i := range child {
		if i >= 0 {
			frames[end[i]] = inbox[j]
			end[i]++
		}
	}
	var lo int32
	for i, sub := range x.subs {
		hi := end[i]
		if sub != nil {
			// Capacity pinned: a child cannot append into its neighbour.
			outs = sub.Tick(now, frames[lo:hi:hi], outs)
		}
		lo = hi
	}
	clear(frames)
	a.frames, a.child, a.end = frames, child, end
	routeArenas.Put(a)
	return outs
}

// Wake implements Waker: the minimum of the live children's wakes, Never
// without one.
func (x *Mux) Wake() types.Tick {
	w := Never
	for _, sub := range x.subs {
		if sub != nil {
			w = min(w, sub.wake)
		}
	}
	return w
}

// Done reports whether every child ever added is either retired or done.
// An empty Mux is done (vacuously); parents typically guard with their
// own admission bookkeeping.
func (x *Mux) Done() bool {
	for _, sub := range x.subs {
		if sub != nil && !sub.Done() {
			return false
		}
	}
	return true
}
