// Command adaptiveba-trace runs one protocol in the simulator and renders
// a per-round timeline of its communication: which rounds were silent,
// which leader drove which phase, where certificates flowed, and where the
// fallback exploded. The compressed view is what makes the adaptive
// mechanism visible — silent phases literally print as nothing.
//
//	adaptiveba-trace -protocol wba -n 9 -f 1
//	adaptiveba-trace -protocol bb -n 9 -f 3 -expand
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adaptiveba-trace:", err)
		os.Exit(1)
	}
}

// event is one observed send.
type event struct {
	tick    types.Tick
	from    types.ProcessID
	to      types.ProcessID
	session string
	typ     string
	honest  bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adaptiveba-trace", flag.ContinueOnError)
	var kinds, faults []string
	for _, k := range protocols.Kinds() {
		kinds = append(kinds, string(k))
	}
	for _, p := range attacks.Patterns {
		faults = append(faults, p.Name)
	}
	var (
		protocol = fs.String("protocol", "wba", "protocol: "+strings.Join(kinds, " | "))
		n        = fs.Int("n", 9, "number of processes")
		f        = fs.Int("f", 0, "number of corrupted processes")
		fault    = fs.String("fault", "crash", "fault pattern: "+strings.Join(faults, " | "))
		expand   = fs.Bool("expand", false, "print every message instead of per-tick summaries")
		maxTicks = fs.Int("max-ticks", 0, "only render the first N ticks (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var events []event
	spec := harness.Spec{
		Protocol: harness.Protocol(*protocol),
		N:        *n,
		F:        *f,
		Fault:    harness.Fault(*fault),
		OnSend: func(now types.Tick, m sim.Message, honest bool) {
			typ := "?"
			if m.Payload != nil {
				typ = m.Payload.Type()
			}
			events = append(events, event{
				tick: now, from: m.From, to: m.To,
				session: m.Session, typ: typ, honest: honest,
			})
		},
	}
	o, err := harness.Run(spec)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s run: n=%d t=%d f=%d — decision %s, %d words, %d ticks\n\n",
		*protocol, *n, (*n-1)/2, *f, o.Decision, o.Words, o.Ticks)
	if *expand {
		renderExpanded(out, events, *maxTicks)
	} else {
		renderSummary(out, events, *maxTicks)
	}
	return nil
}

// renderSummary prints one line per (tick, message type): the compressed
// timeline in which silent rounds simply do not appear.
func renderSummary(out io.Writer, events []event, limit int) {
	type key struct {
		tick types.Tick
		typ  string
	}
	type agg struct {
		count   int
		froms   map[types.ProcessID]bool
		byz     int
		session string
	}
	byKey := make(map[key]*agg)
	var maxTick types.Tick
	for _, e := range events {
		if limit > 0 && int(e.tick) >= limit {
			continue
		}
		k := key{tick: e.tick, typ: e.typ}
		a := byKey[k]
		if a == nil {
			a = &agg{froms: make(map[types.ProcessID]bool), session: e.session}
			byKey[k] = a
		}
		a.count++
		a.froms[e.from] = true
		if !e.honest {
			a.byz++
		}
		if e.tick > maxTick {
			maxTick = e.tick
		}
	}
	keys := make([]key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].tick != keys[b].tick {
			return keys[a].tick < keys[b].tick
		}
		return keys[a].typ < keys[b].typ
	})
	lastTick := types.Tick(-1)
	for _, k := range keys {
		a := byKey[k]
		tickLabel := "      "
		if k.tick != lastTick {
			if lastTick >= 0 && k.tick > lastTick+1 {
				fmt.Fprintf(out, "        ~ %d silent ticks ~\n", k.tick-lastTick-1)
			}
			tickLabel = fmt.Sprintf("t=%-4d", k.tick)
			lastTick = k.tick
		}
		senders := senderSummary(a.froms)
		byzNote := ""
		if a.byz > 0 {
			byzNote = fmt.Sprintf("  [%d byzantine]", a.byz)
		}
		fmt.Fprintf(out, "%s  %-22s ×%-4d from %s%s\n", tickLabel, k.typ, a.count, senders, byzNote)
	}
}

// renderExpanded prints every message.
func renderExpanded(out io.Writer, events []event, limit int) {
	for _, e := range events {
		if limit > 0 && int(e.tick) >= limit {
			return
		}
		tag := ""
		if !e.honest {
			tag = " [byz]"
		}
		session := e.session
		if session == "" {
			session = "-"
		}
		fmt.Fprintf(out, "t=%-4d %v -> %v  %-22s %s%s\n", e.tick, e.from, e.to, e.typ, session, tag)
	}
}

// senderSummary compacts a sender set into p0..p4-style ranges.
func senderSummary(froms map[types.ProcessID]bool) string {
	ids := make([]int, 0, len(froms))
	for id := range froms {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		return "-"
	}
	var parts []string
	start, prev := ids[0], ids[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("p%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("p%d..p%d", start, prev))
		}
	}
	for _, id := range ids[1:] {
		if id == prev+1 {
			prev = id
			continue
		}
		flush()
		start, prev = id, id
	}
	flush()
	return strings.Join(parts, ",")
}
