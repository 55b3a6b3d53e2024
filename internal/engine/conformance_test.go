package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/adversary"
	"adaptiveba/internal/baseline/dolevstrong"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/fallback"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// poison is what the hostile runtime leaves wherever a machine has no
// business looking.
type poison struct{}

func (poison) Type() string { return "conformance/poison" }
func (poison) Words() int   { return 1 }

var (
	poisonOut = proto.Outgoing{To: -7, Session: "poison/out", Payload: poison{}}
	poisonIn  = proto.Incoming{From: -7, Session: "poison/in", Payload: poison{}}
)

// lenient is the most forgiving runtime there could be: every call gets
// an empty send buffer of its own and a private copy of its inbox, and
// neither is touched again.
type lenient struct{ proto.Machine }

func (l lenient) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return append(outs, l.Machine.Begin(now, nil)...)
}

func (l lenient) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	return append(outs, l.Machine.Tick(now, append([]proto.Incoming(nil), inbox...), nil)...)
}

// hostile is the least forgiving runtime the proto.Machine contract
// allows. The machine appends to one reused buffer that already holds a
// poisoned prefix (a sibling's sends, for all it knows) of a length that
// changes from call to call; every other call the buffer is exactly full,
// so the first append anywhere in the session tree moves it and whoever
// kept the old slice writes into the void. When the call returns, the
// prefix must be intact, the sends are copied out and the whole buffer is
// poisoned (consumed), and the inbox is scrambled on the spot.
type hostile struct {
	proto.Machine
	t     *testing.T
	buf   []proto.Outgoing
	calls int
}

func (h *hostile) step(outs []proto.Outgoing, call func(buf []proto.Outgoing) []proto.Outgoing) []proto.Outgoing {
	k := 1 + h.calls%5
	buf := h.buf[:0]
	if h.calls%2 == 0 {
		buf = make([]proto.Outgoing, 0, k)
	}
	h.calls++
	for len(buf) < k {
		buf = append(buf, poisonOut)
	}
	got := call(buf)
	if len(got) < k {
		h.t.Errorf("machine returned %d sends from a buffer it was given holding %d", len(got), k)
		return outs
	}
	for _, o := range got[:k] {
		if _, ok := o.Payload.(poison); !ok || o.To != poisonOut.To || o.Session != poisonOut.Session {
			h.t.Errorf("machine wrote below the length of the buffer it was given: %+v", o)
		}
	}
	outs = append(outs, got[k:]...)
	for i := range got {
		got[i] = poisonOut
	}
	h.buf = got
	return outs
}

func (h *hostile) Begin(now types.Tick, outs []proto.Outgoing) []proto.Outgoing {
	return h.step(outs, func(buf []proto.Outgoing) []proto.Outgoing { return h.Machine.Begin(now, buf) })
}

func (h *hostile) Tick(now types.Tick, inbox []proto.Incoming, outs []proto.Outgoing) []proto.Outgoing {
	outs = h.step(outs, func(buf []proto.Outgoing) []proto.Outgoing { return h.Machine.Tick(now, inbox, buf) })
	for i := range inbox {
		inbox[i] = poisonIn
	}
	return outs
}

// storm is the Byzantine cell's adversary, the same for every machine
// kind. Its processes equivocate — each runs the protocol twice, on two
// inputs, and shows one face to the even processes and the other to the
// odd ones — until tick mute and are silent from then on, which is what
// sends the honest processes into the fallback. Meanwhile they spam:
// stale honest payloads re-sent from their identities to random
// recipients, on sessions that may have retired since. And at tick 1,
// long before any fallback starts, the first of them sends every process
// its round-1 relay of the fallback broadcast it will be the sender of
// (kind.fb): a frame for a child that does not exist yet, which the tree
// above it has to keep — by value — until it does, and which that child
// then extracts and relays.
type storm struct {
	faces  [2]*adversary.Mimic
	replay *adversary.Replay
	mute   types.Tick
	fb     string // session path of that fallback instance, "" if the kind has none
	fbTag  string
	early  []sim.Message
}

func (s *storm) Init(env sim.Env) {
	s.faces[0].Init(env)
	s.faces[1].Init(env)
	s.replay.Init(env)
	if s.fb == "" {
		return
	}
	from := s.Corruptions()[0].ID
	chain, err := dolevstrong.NewChain(env.Crypto.Signer(from), s.fbTag, types.Value("early"))
	if err != nil {
		panic(err)
	}
	for to := 0; to < env.Params.N; to++ {
		s.early = append(s.early, sim.Message{
			From: from, To: types.ProcessID(to), Session: s.fb,
			Payload: dolevstrong.Relay{Sender: from, V: types.Value("early"), Chain: chain},
		})
	}
}

func (s *storm) Corruptions() []sim.Corruption { return s.faces[0].Corruptions() }

func (s *storm) Observe(now types.Tick, to types.ProcessID, inbox []proto.Incoming) {
	s.faces[0].Observe(now, to, inbox)
	s.faces[1].Observe(now, to, inbox)
}

func (s *storm) Act(now types.Tick, honest []sim.Message) []sim.Message {
	var msgs []sim.Message
	for face, puppets := range s.faces {
		for _, m := range puppets.Act(now, honest) {
			if now < s.mute && int(m.To)%2 == face {
				msgs = append(msgs, m)
			}
		}
	}
	if now == 1 {
		msgs = append(msgs, s.early...)
	}
	return append(msgs, s.replay.Act(now, honest)...)
}

func (s *storm) Quiescent(now types.Tick) bool { return s.replay.Quiescent(now) }

// conformanceKind builds one in-tree machine kind for process id, under
// the root tag "c", with its tick budget. alt selects the second input of
// an equivocating process. fb is the session path, below the root, of the
// fallback's Dolev–Strong instance whose sender is process 1.
type conformanceKind struct {
	name  string
	fb    string
	build func(crypto *proto.Crypto, params types.Params, id types.ProcessID, alt bool) (proto.Machine, types.Tick)
}

func pick(alt bool, honest, other string) types.Value {
	if alt {
		return types.Value(other)
	}
	return types.Value(honest)
}

func bit(alt bool) types.Value {
	if alt {
		return types.Zero
	}
	return types.One
}

// procKind is engine.procMachine over four queued sessions, one of each
// kind, through a window of two — on the schedule Run would plan.
var procKind = conformanceKind{"engine-static", "s2/fb/i1", func(crypto *proto.Crypto, params types.Params, id types.ProcessID, alt bool) (proto.Machine, types.Tick) {
	batch := func(p int) types.Value {
		return acs.EncodeBatch([]types.Value{types.Value(fmt.Sprintf("SET k%d %s", p, pick(alt, "v", "w")))})
	}
	inputs := make([]types.Value, params.N)
	for p := range inputs {
		inputs[p] = batch(p)
	}
	sched, err := plan(&builder{params: params, crypto: crypto, tag: "c", reqs: []Request{
		{Kind: protocols.ACS, Inputs: inputs},
		{Kind: protocols.BB, Sender: 0, Value: pick(alt, "cmd", "dmc")},
		{Kind: protocols.StrongBA, Value: bit(alt)},
		{Kind: protocols.WBA, Value: pick(alt, "w", "x")},
	}}, 2)
	if err != nil {
		panic(err)
	}
	return sched.root(id), sched.budget
}}

// tableKind is a row built through the protocol table, under the root tag
// "c", with the table's tick bound as its budget.
func tableKind(name string, kind protocols.Kind, fb string, input func(id types.ProcessID, alt bool) types.Value) conformanceKind {
	return conformanceKind{name, fb, func(crypto *proto.Crypto, params types.Params, id types.ProcessID, alt bool) (proto.Machine, types.Tick) {
		cfg := protocols.Config{Params: params, Crypto: crypto, Tag: "c"}
		m, err := kind.New(cfg, id, input(id, alt))
		if err != nil {
			panic(err)
		}
		return m, kind.MaxTicks(cfg)
	}}
}

func word(honest, other string) func(types.ProcessID, bool) types.Value {
	return func(_ types.ProcessID, alt bool) types.Value { return pick(alt, honest, other) }
}

func bits(_ types.ProcessID, alt bool) types.Value { return bit(alt) }

var conformanceKinds = []conformanceKind{
	tableKind("bb", protocols.BB, "wba/fb/i1", word("v", "w")),
	tableKind("bbviaba", protocols.BBViaBA, "ba/fb/i1", bits),
	tableKind("wba", protocols.WBA, "fb/i1", word("v", "w")),
	tableKind("strongba", protocols.StrongBA, "fb/i1", bits),
	// The fallback and Dolev–Strong rows keep their own round durations and
	// budgets, which are not the table's, so they are built by hand.
	{"fallback", "i1", func(crypto *proto.Crypto, params types.Params, id types.ProcessID, alt bool) (proto.Machine, types.Tick) {
		m := fallback.NewMachine(fallback.Config{Params: params, Crypto: crypto, ID: id, Input: pick(alt, "v", "w"), Tag: "c", RoundDur: 2})
		return m, m.Duration() + 4
	}},
	{"dolevstrong", "", func(crypto *proto.Crypto, params types.Params, id types.ProcessID, alt bool) (proto.Machine, types.Tick) {
		m := dolevstrong.NewMachine(dolevstrong.Config{Params: params, Crypto: crypto, ID: id, Sender: 0, Input: pick(alt, "v", "w"), Tag: "c", RoundDur: 1})
		return m, m.Duration() + 4
	}},
	tableKind("acs", protocols.ACS, "v1/fb/i1", func(id types.ProcessID, alt bool) types.Value {
		return acs.EncodeBatch([]types.Value{types.Value(fmt.Sprintf("SET k%d %s", id, pick(alt, "v", "w")))})
	}),
	procKind,
	// The replicated log RunLog drives: three BB slots with rotating
	// proposers, one at a time; p2's queue is empty, so its slot
	// broadcasts ⊥.
	{"smr", "s0/wba/fb/i1", func(crypto *proto.Crypto, params types.Params, id types.ProcessID, alt bool) (proto.Machine, types.Tick) {
		cmd := pick(alt, "SET a 1", "SET a 2")
		sched, err := plan(&builder{params: params, crypto: crypto, tag: "c", reqs: logRequests(params.N, [][]types.Value{{cmd}, {cmd}}, 3)}, 1)
		if err != nil {
			panic(err)
		}
		return sched.root(id), sched.budget
	}},
}

// lateFrames is what a kind's demultiplexers counted as late, unrouted or
// shed, where the kind counts at all.
func lateFrames(m proto.Machine) int64 {
	switch m := m.(type) {
	case *acs.Machine:
		return m.Late()
	case *procMachine:
		late := m.mux.Late() + m.mux.Unrouted()
		for _, child := range m.children {
			if child != nil {
				late += lateFrames(child)
			}
		}
		return late
	}
	return 0
}

// TestMachineBufferContract runs every in-tree machine kind through the
// same seeded, shuffled schedule twice — once under the lenient runtime,
// once under the hostile one — and requires the two runs to be
// indistinguishable: every send (tick, ends, session path, encoded
// payload, in order), the metrics report, every decision and every
// late/unrouted count. A machine that keeps its inbox slice, reads or
// writes outs below the length it was handed, or holds a piece of outs
// across a call that moved it sends something else, or nothing, in the
// hostile run.
func TestMachineBufferContract(t *testing.T) {
	type run struct {
		sends bytes.Buffer
		res   *sim.Result
		late  []int64
	}
	for _, kind := range conformanceKinds {
		for _, n := range []int{4, 9} {
			params, err := types.NewParams(n)
			if err != nil {
				t.Fatal(err)
			}
			// t faulty processes, so no quorum of n forms and every kind that
			// has a fallback enters it; process 0 — sender and first leader —
			// stays up, so there is traffic to look at.
			faulty := adversary.CrashSet(params.T, false)
			scenarios := []struct {
				name string
				adv  func(crypto *proto.Crypto, budget types.Tick) sim.Adversary
			}{
				{"failure-free", func(*proto.Crypto, types.Tick) sim.Adversary { return nil }},
				{"crash", func(*proto.Crypto, types.Tick) sim.Adversary { return adversary.NewCrash(faulty...) }},
				{"byzantine", func(crypto *proto.Crypto, budget types.Tick) sim.Adversary {
					st := &storm{replay: adversary.NewReplay(int64(n), budget*2/3, faulty...), mute: 2, fb: kind.fb, fbTag: "c/" + kind.fb}
					st.replay.Rate = 2 * n
					for face := range st.faces {
						alt := face == 1
						st.faces[face] = adversary.NewMimic(func(id types.ProcessID) proto.Machine {
							m, _ := kind.build(crypto, params, id, alt)
							return m
						}, faulty...)
					}
					return st
				}},
			}
			for _, sc := range scenarios {
				t.Run(fmt.Sprintf("%s/n%d/%s", kind.name, n, sc.name), func(t *testing.T) {
					play := func(wrap func(proto.Machine) proto.Machine) *run {
						ring, err := sig.NewHMACRing(n, []byte("conformance"))
						if err != nil {
							t.Fatal(err)
						}
						crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
						_, budget := kind.build(crypto, params, 0, false)
						machines := make([]proto.Machine, n)
						r := &run{}
						r.res, err = sim.Run(sim.Config{
							Params: params, Crypto: crypto, ShuffleSeed: 7, MaxTicks: budget,
							Factory: func(id types.ProcessID) proto.Machine {
								machines[id], _ = kind.build(crypto, params, id, false)
								return wrap(machines[id])
							},
							Adversary: sc.adv(crypto, budget),
							OnSend: func(now types.Tick, m sim.Message, honest bool) {
								body, err := wire.EncodePayload(m.Payload)
								fmt.Fprintf(&r.sends, "t=%d honest=%t %v>%v [%s] %x %v\n", now, honest, m.From, m.To, m.Session, body, err)
							},
						})
						if err != nil {
							t.Fatal(err)
						}
						for _, id := range r.res.Honest {
							r.late = append(r.late, lateFrames(machines[id]))
						}
						return r
					}
					want := play(func(m proto.Machine) proto.Machine { return lenient{m} })
					got := play(func(m proto.Machine) proto.Machine { return &hostile{Machine: m, t: t} })

					if want.sends.Len() == 0 {
						t.Fatal("the run sent nothing")
					}
					if sc.name != "byzantine" && !want.res.AllDecided() {
						t.Errorf("lenient run: not every honest process decided (timed out: %t)", want.res.TimedOut)
					}
					if !bytes.Equal(got.sends.Bytes(), want.sends.Bytes()) {
						t.Errorf("send streams differ: %s", firstDifference(want.sends.Bytes(), got.sends.Bytes()))
					}
					if !reflect.DeepEqual(got.res, want.res) {
						t.Errorf("results differ:\nhostile %+v\nlenient %+v", got.res, want.res)
					}
					if !reflect.DeepEqual(got.late, want.late) {
						t.Errorf("late/unrouted counts differ: hostile %v, lenient %v", got.late, want.late)
					}
				})
			}
		}
	}
}

// firstDifference names the first send at which two streams part.
func firstDifference(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("send %d (of %d lenient, %d hostile):\nlenient %s\nhostile %s", i, len(w)-1, len(g)-1, w[i], g[i])
		}
	}
	return fmt.Sprintf("one stream is a prefix of the other (%d lenient sends, %d hostile)", len(w)-1, len(g)-1)
}
