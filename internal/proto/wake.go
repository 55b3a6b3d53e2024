package proto

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"

	"adaptiveba/internal/types"
)

// Waker is an optional Machine extension for machines whose steps without
// mail are mostly silent: the rounds of an adaptive protocol after its
// first correct leader send nothing, and the host need not step it
// through them.
//
// After a Begin or Tick at now, Wake returns the earliest tick after now
// at which the machine must be stepped although its inbox is empty; a
// wake at or before now means the next tick, and Never means only mail
// wakes it. Until that tick, a Tick with an empty inbox must send nothing
// and change nothing a host can see: not Output, not Done, not Wake. A
// Machine that is not a Waker is stepped at every tick.
type Waker interface {
	Wake() types.Tick
}

// Never is the wake of a machine that only mail can wake.
const Never types.Tick = math.MaxInt64

// WakeOf is m's wake after a step at now: m.Wake() for a Waker, now+1 —
// every tick — otherwise.
func WakeOf(m Machine, now types.Tick) types.Tick {
	if w, ok := m.(Waker); ok {
		return w.Wake()
	}
	return now + 1
}

// Asleep reports whether a host may skip a machine with an empty inbox
// at now, given its wake: it is not due yet. Under the exactness check it
// never is, so that hosts step every machine at every tick.
func Asleep(wake, now types.Tick) bool {
	return wake > now && asleepCheck == nil
}

// Step ticks m at now if it has mail or is due, and returns outs
// extended, m's next wake, and whether m was stepped. A machine that is
// skipped keeps its wake; under the exactness check it is stepped anyway,
// and what that step changed is reported.
func Step(m Machine, wake, now types.Tick, inbox []Incoming, outs []Outgoing) ([]Outgoing, types.Tick, bool) {
	if len(inbox) == 0 && wake > now {
		if asleepCheck == nil {
			return outs, wake, false
		}
		return stepAsleep(m, wake, now, outs), wake, true
	}
	outs = m.Tick(now, inbox, outs)
	return outs, WakeOf(m, now), true
}

// asleepCheck is the exactness check's sink (set by tests through
// export_test.go, nil otherwise): when set, hosts step every machine at every tick, and each step
// of a machine before its wake with an empty inbox that sends, or changes
// its wake, Done or Output, is reported to it.
var asleepCheck func(error)

// stepAsleep ticks m with an empty inbox before its wake and reports to
// asleepCheck what the step changed.
func stepAsleep(m Machine, wake, now types.Tick, outs []Outgoing) []Outgoing {
	v0, ok0 := m.Output()
	v0 = slices.Clone(v0)
	done0, n0 := m.Done(), len(outs)
	outs = m.Tick(now, nil, outs)
	var changed []string
	if len(outs) > n0 {
		changed = append(changed, fmt.Sprintf("sent %d messages (first %T)", len(outs)-n0, outs[n0].Payload))
	}
	if w := WakeOf(m, now); w != wake {
		changed = append(changed, fmt.Sprintf("wake %d -> %d", wake, w))
	}
	if done := m.Done(); done != done0 {
		changed = append(changed, fmt.Sprintf("done %t -> %t", done0, done))
	}
	if v, ok := m.Output(); ok != ok0 || !bytes.Equal(v, v0) {
		changed = append(changed, "output changed")
	}
	if changed != nil {
		asleepCheck(fmt.Errorf("%T stepped asleep at tick %d (wake %d): %s", m, now, wake, strings.Join(changed, ", ")))
	}
	return outs
}
