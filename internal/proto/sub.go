package proto

import (
	"slices"

	"adaptiveba/internal/types"
)

// Sub hosts a child machine under a named session. Parents create a Sub,
// feed it the child-addressed slice of their inbox every tick, and start
// it whenever the protocol dictates (possibly mid-run, as with the
// fallback). Messages that arrive before the child starts are buffered and
// replayed on the first tick after Begin.
//
// A Sub is a Waker: it steps its child only when the child has mail or is
// due (see Waker), and reports the child's wake to its parent. It is due
// in its own Begin tick whatever the child reports, so a parent that
// begins a child and ticks it in the same tick steps it twice, as it
// would without wakes.
type Sub struct {
	name    string
	machine Machine
	wake    types.Tick // the child's wake, kept from its last step
	started bool
	joins   uint8 // paths joined, counted up to maxPaths + 1
	buffer  []Incoming

	// lastJoined is the session path wrap produced last, name/rest (name
	// alone for an empty rest): a broadcast is n consecutive sends on one
	// path. A child that has switched paths more than maxPaths times
	// also gets others, the joined forms of up to maxPaths more of its
	// paths, so switching among a handful of them joins none again. A
	// child that does not revisit its paths allocates none of it.
	lastJoined string
	others     *[maxPaths]string // filled from the front; "" is free
}

// maxPaths bounds Sub.others: every path of a nested protocol child fits,
// and a search of a full one costs less than the join it saves.
const maxPaths = 8

// NewSub wraps machine under the session segment name.
func NewSub(name string, machine Machine) *Sub {
	return &Sub{name: name, machine: machine, wake: Never}
}

// Name returns the session segment.
func (s *Sub) Name() string { return s.name }

// Started reports whether Begin has been called.
func (s *Sub) Started() bool { return s.started }

// Route splits inbox into messages addressed to this child (with the
// session prefix stripped) and the rest. Parents with several children
// call Route once per child on the remainder.
func (s *Sub) Route(inbox []Incoming) (mine, rest []Incoming) {
	for _, in := range inbox {
		head, tail := SplitSession(in.Session)
		if head == s.name {
			in.Session = tail
			mine = append(mine, in)
		} else {
			rest = append(rest, in)
		}
	}
	return mine, rest
}

// Begin starts the child at tick now, appending its wrapped sends. It is
// idempotent: second and later calls append nothing.
func (s *Sub) Begin(now types.Tick, outs []Outgoing) []Outgoing {
	if s.started {
		return outs
	}
	s.started, s.wake = true, now
	return s.wrap(len(outs), s.machine.Begin(now, outs))
}

// Tick forwards child-addressed messages. Before the child starts, the
// messages are buffered (copied: mine is the caller's scratch); the
// buffered backlog is replayed in the first Tick after Begin. A started
// child with no mail is stepped only if it is due.
func (s *Sub) Tick(now types.Tick, mine []Incoming, outs []Outgoing) []Outgoing {
	if !s.started {
		s.buffer = append(s.buffer, mine...)
		return outs
	}
	if len(s.buffer) > 0 {
		mine = append(s.buffer, mine...)
		s.buffer = nil
	}
	n0 := len(outs)
	outs, s.wake, _ = Step(s.machine, s.wake, now, mine, outs)
	return s.wrap(n0, outs)
}

// Wake implements Waker: the child's wake, Never before Begin (the
// parent decides when to start it). A child that is not a Waker is due
// at every tick after its last step (WakeOf).
func (s *Sub) Wake() types.Tick { return s.wake }

// Output proxies the child's decision.
func (s *Sub) Output() (types.Value, bool) {
	return s.machine.Output()
}

// Done proxies the child's completion; an unstarted child is not done.
func (s *Sub) Done() bool {
	return s.started && s.machine.Done()
}

// wrap prefixes the sends the child just appended — outs[n0:] of the
// slice it returned; what lies before belongs to the caller — with the
// session segment. A path is joined only when it is neither the last
// one nor among others.
func (s *Sub) wrap(n0 int, outs []Outgoing) []Outgoing {
	for i := n0; i < len(outs); i++ {
		outs[i].Session = s.join(outs[i].Session)
	}
	return outs
}

// join returns rest below the Sub's segment, joining it unless it is
// the last path or one of others.
func (s *Sub) join(rest string) string {
	if s.lastJoined != "" && s.restOf(s.lastJoined) == rest {
		return s.lastJoined
	}
	if s.others != nil {
		for i, p := range s.others {
			if p == "" {
				break
			}
			if s.restOf(p) == rest {
				s.others[i], s.lastJoined = s.lastJoined, p
				return p
			}
		}
	}
	if s.joins <= maxPaths {
		s.joins++
	} else if s.lastJoined != "" {
		if s.others == nil {
			s.others = new([maxPaths]string)
		}
		if i := slices.Index(s.others[:], ""); i >= 0 {
			s.others[i] = s.lastJoined
		}
	}
	s.lastJoined = JoinSession(s.name, rest)
	return s.lastJoined
}

// restOf is the child-relative path a joined path of the Sub came from.
func (s *Sub) restOf(joined string) string {
	return joined[min(len(joined), len(s.name)+1):]
}
