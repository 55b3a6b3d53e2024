package proto

import (
	"fmt"
	"testing"

	"adaptiveba/internal/testenv"
	"adaptiveba/internal/types"
)

// recMachine records (copies of) its inboxes and echoes them back.
type recMachine struct {
	seen    []Incoming
	decided bool
}

func (r *recMachine) Begin(_ types.Tick, outs []Outgoing) []Outgoing { return outs }

func (r *recMachine) Tick(_ types.Tick, inbox []Incoming, outs []Outgoing) []Outgoing {
	for _, in := range inbox {
		r.seen = append(r.seen, in) // element copies, not the slice
		outs = append(outs, Outgoing{To: in.From, Session: in.Session, Payload: in.Payload})
	}
	return outs
}

func (r *recMachine) Output() (types.Value, bool) { return nil, r.decided }
func (r *recMachine) Done() bool                  { return r.decided }

func muxInbox(sessions ...string) []Incoming {
	in := make([]Incoming, len(sessions))
	for i, s := range sessions {
		in[i] = Incoming{From: types.ProcessID(i), Session: s, Payload: fakePayload{name: "p", words: 1}}
	}
	return in
}

// muxHost is a machine whose children live under a Mux — the shape of
// acs, fallback and the engine's per-process root.
type muxHost struct{ x *Mux }

func (h muxHost) Begin(_ types.Tick, outs []Outgoing) []Outgoing { return outs }
func (h muxHost) Tick(now types.Tick, inbox []Incoming, outs []Outgoing) []Outgoing {
	return h.x.Tick(now, inbox, outs)
}
func (h muxHost) Output() (types.Value, bool) { return nil, false }
func (h muxHost) Done() bool                  { return h.x.Done() }

// routeHost is muxHost's serial reference: one Sub.Route pass per child
// in insertion order, a retired child's frames counted late and dropped,
// whatever no child claims counted unrouted.
type routeHost struct {
	subs           []*Sub
	retired        map[string]bool
	late, unrouted int
}

func (h *routeHost) Begin(_ types.Tick, outs []Outgoing) []Outgoing { return outs }
func (h *routeHost) Tick(now types.Tick, inbox []Incoming, outs []Outgoing) []Outgoing {
	rest := inbox
	for _, sub := range h.subs {
		var mine []Incoming
		mine, rest = sub.Route(rest)
		if h.retired[sub.Name()] {
			h.late += len(mine)
			continue
		}
		outs = sub.Tick(now, mine, outs)
	}
	h.unrouted += len(rest)
	return outs
}
func (h *routeHost) Output() (types.Value, bool) { return nil, false }
func (h *routeHost) Done() bool                  { return false }

// TestMuxMatchesSerialRouting proves the counting sort delivers exactly
// what per-child Sub.Route chains would — same per-child messages, same
// order, same wrapped output order, same late and unrouted counts — on a
// tree with a nested mux, a retired child and unknown sessions at both
// levels, all inside one inbox, over several ticks (so every arena is one
// an earlier tick, or the other level, already used).
func TestMuxMatchesSerialRouting(t *testing.T) {
	// s0 leaf, s1 nested {in0, in1 (retired), in2}, s2 leaf (retired), s3 leaf.
	var muxLeaves, refLeaves []*recMachine
	leaf := func(into *[]*recMachine) *recMachine {
		m := &recMachine{}
		*into = append(*into, m)
		return m
	}
	outer, inner := NewMux(), NewMux()
	refInner := &routeHost{retired: map[string]bool{"in1": true}}
	ref := &routeHost{retired: map[string]bool{"s2": true}}
	for _, name := range []string{"in0", "in1", "in2"} {
		inner.Add(name, leaf(&muxLeaves)).Begin(0, nil)
		sub := NewSub(name, leaf(&refLeaves))
		sub.Begin(0, nil)
		refInner.subs = append(refInner.subs, sub)
	}
	for _, name := range []string{"s0", "s1", "s2", "s3"} {
		var m, r Machine = leaf(&muxLeaves), leaf(&refLeaves)
		if name == "s1" {
			m, r = muxHost{inner}, refInner
		}
		outer.Add(name, m).Begin(0, nil)
		sub := NewSub(name, r)
		sub.Begin(0, nil)
		ref.subs = append(ref.subs, sub)
	}
	inner.Retire("in1")
	outer.Retire("s2")

	sessions := []string{
		"s3", "s1/in2", "s0", "nope", "s1/in1/late", "s2", "s1/in0/deep/er", "s3/x",
		"s1/nope", "s0/deep/er", "s1", "s2/late", "s1/in2", "s0", "", "s1/in0",
	}
	var outs, refOuts []Outgoing
	for tick := types.Tick(1); tick <= 3; tick++ {
		n0 := len(outs)
		outs = outer.Tick(tick, muxInbox(sessions...), outs)
		refOuts = ref.Tick(tick, muxInbox(sessions...), refOuts)
		if len(outs) == n0 {
			t.Fatalf("tick %d routed nothing", tick)
		}
		sessions = append(sessions[5:], sessions[:5]...) // another interleaving next tick
	}

	if len(outs) != len(refOuts) {
		t.Fatalf("outs: %d vs serial %d", len(outs), len(refOuts))
	}
	for i := range outs {
		if outs[i].To != refOuts[i].To || outs[i].Session != refOuts[i].Session {
			t.Errorf("out %d: %+v vs %+v", i, outs[i], refOuts[i])
		}
	}
	for i := range muxLeaves {
		if len(muxLeaves[i].seen) != len(refLeaves[i].seen) {
			t.Fatalf("leaf %d saw %d msgs, serial saw %d", i, len(muxLeaves[i].seen), len(refLeaves[i].seen))
		}
		for j, got := range muxLeaves[i].seen {
			if want := refLeaves[i].seen[j]; got.Session != want.Session || got.From != want.From {
				t.Errorf("leaf %d msg %d: %+v vs %+v", i, j, got, want)
			}
		}
	}
	for _, c := range []struct {
		level string
		x     *Mux
		ref   *routeHost
	}{{"outer", outer, ref}, {"inner", inner, refInner}} {
		if c.ref.late == 0 || c.ref.unrouted == 0 {
			t.Fatalf("%s: the inbox exercises late=%d unrouted=%d, want both > 0", c.level, c.ref.late, c.ref.unrouted)
		}
		if c.x.Late() != int64(c.ref.late) || c.x.Unrouted() != int64(c.ref.unrouted) {
			t.Errorf("%s: late/unrouted = %d/%d, serial %d/%d", c.level, c.x.Late(), c.x.Unrouted(), c.ref.late, c.ref.unrouted)
		}
	}
}

func TestMuxRetire(t *testing.T) {
	x := NewMux()
	m := &recMachine{}
	x.Add("a", m).Begin(0, nil)
	x.Add("b", &recMachine{}).Begin(0, nil)

	x.Tick(1, muxInbox("a", "b"), nil)
	if len(m.seen) != 1 {
		t.Fatalf("pre-retire: child a saw %d", len(m.seen))
	}

	x.Retire("a")
	x.Retire("a") // idempotent
	if x.Get("a") != nil {
		t.Error("retired child still visible")
	}
	x.Tick(2, muxInbox("a", "b"), nil)
	if len(m.seen) != 1 {
		t.Errorf("retired child was stepped with traffic: %d", len(m.seen))
	}
	if x.Late() != 1 {
		t.Errorf("late = %d, want 1", x.Late())
	}
}

func TestMuxDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	x := NewMux()
	x.Add("a", &recMachine{})
	x.Add("a", &recMachine{})
}

// raceArenaRebuildAllocs is what a Mux.Tick that finds the pool empty pays
// under the race detector: the routeArena, and two allocations for each of
// its three slices (slices.Grow's temporary is not elided there; a normal
// build pays four in all).
const raceArenaRebuildAllocs = 7

// TestMuxSteadyStateAllocs pins the allocation-free tick path: once an
// arena has been grown, routing plus stepping allocates nothing in the
// Mux itself — and because the arena belongs to the call rather than to
// the Mux, neither does a second Mux created after the warm-up (one per
// ACS round, one per fallback), nor one nested under it. The race
// detector's sync.Pool drops Puts at random, so there the bound is what
// those drops can cost at most — one arena rebuild for each of the two
// muxes a tick runs — and not one allocation more.
func TestMuxSteadyStateAllocs(t *testing.T) {
	build := func() *Mux {
		x, inner := NewMux(), NewMux()
		for i := 0; i < 4; i++ {
			x.Add(fmt.Sprintf("s%d", i), quietMachine{}).Begin(0, nil)
			inner.Add(fmt.Sprintf("s%d", i), quietMachine{}).Begin(0, nil)
		}
		x.Add("n", muxHost{inner}).Begin(0, nil)
		return x
	}
	sessions := []string{"s0", "s1", "n/s2", "s2", "s3", "n/s0", "s0", "s2", "n/s2"}
	inbox, pristine := muxInbox(sessions...), muxInbox(sessions...)
	tick := func(x *Mux) func() {
		return func() {
			copy(inbox, pristine) // routing strips prefixes in place
			x.Tick(2, inbox, nil)
		}
	}
	warm := build()
	tick(warm)()
	var ceiling float64
	if testenv.Race() {
		ceiling = 2 * raceArenaRebuildAllocs
	}
	for name, x := range map[string]*Mux{"warmed": warm, "created after warm-up": build()} {
		allocs := testing.AllocsPerRun(100, tick(x))
		t.Logf("%s: %.0f allocs/op (ceiling %.0f)", name, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("steady-state Mux.Tick (%s) allocates %.1f/op, want at most %.0f", name, allocs, ceiling)
		}
	}
}

// quietMachine consumes everything and sends nothing.
type quietMachine struct{}

func (quietMachine) Begin(_ types.Tick, outs []Outgoing) []Outgoing { return outs }
func (quietMachine) Tick(_ types.Tick, _ []Incoming, outs []Outgoing) []Outgoing {
	return outs
}
func (quietMachine) Output() (types.Value, bool) { return nil, false }
func (quietMachine) Done() bool                  { return false }
