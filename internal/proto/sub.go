package proto

import "adaptiveba/internal/types"

// Sub hosts a child machine under a named session. Parents create a Sub,
// feed it the child-addressed slice of their inbox every tick, and start
// it whenever the protocol dictates (possibly mid-run, as with the
// fallback). Messages that arrive before the child starts are buffered and
// replayed on the first tick after Begin.
type Sub struct {
	name    string
	machine Machine
	started bool
	begun   bool
	buffer  []Incoming

	// The last child-relative session path wrap prefixed, and the result:
	// a broadcast is n consecutive sends on one path, and a child mostly
	// keeps to one path from tick to tick.
	lastRest, lastJoined string
}

// NewSub wraps machine under the session segment name.
func NewSub(name string, machine Machine) *Sub {
	return &Sub{name: name, machine: machine}
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
	s.started = true
	return s.wrap(len(outs), s.machine.Begin(now, outs))
}

// Tick forwards child-addressed messages. Before the child starts, the
// messages are buffered (copied: mine is the caller's scratch); the
// buffered backlog is replayed in the first Tick after Begin.
func (s *Sub) Tick(now types.Tick, mine []Incoming, outs []Outgoing) []Outgoing {
	if !s.started {
		s.buffer = append(s.buffer, mine...)
		return outs
	}
	if len(s.buffer) > 0 {
		mine = append(s.buffer, mine...)
		s.buffer = nil
	}
	return s.wrap(len(outs), s.machine.Tick(now, mine, outs))
}

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
// session segment, joining each distinct path once per run of equal paths
// rather than once per send.
func (s *Sub) wrap(n0 int, outs []Outgoing) []Outgoing {
	for i := n0; i < len(outs); i++ {
		if rest := outs[i].Session; s.lastJoined == "" || rest != s.lastRest {
			s.lastRest, s.lastJoined = rest, JoinSession(s.name, rest)
		}
		outs[i].Session = s.lastJoined
	}
	return outs
}
