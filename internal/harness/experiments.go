// Experiment definitions: each regenerates one table or figure of the
// paper (see DESIGN.md §3 for the index). The benchmark suite
// (bench_test.go) and the CLI (cmd/adaptiveba-bench) both run these.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/engine"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the experiment key from DESIGN.md §3 (e.g. "t1-bb").
	ID string
	// Title describes the reproduced artifact.
	Title string
	// Run executes the experiment and returns a formatted report. The
	// report is byte-identical at every GOMAXPROCS (RunAll's determinism
	// contract).
	Run func() (string, error)
}

// Experiments lists every experiment in DESIGN.md order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:    "t1-bb",
			Title: "Table 1, Byzantine Broadcast: O(n(f+1)) words",
			Run:   expT1BB,
		},
		{
			ID:    "t1-strongba",
			Title: "Table 1, strong BA: O(n) words at f=0, quadratic otherwise",
			Run:   expT1StrongBA,
		},
		{
			ID:    "t1-wba",
			Title: "Table 1, weak BA: O(n(f+1)) words, fallback threshold (n-t-1)/2",
			Run:   expT1WBA,
		},
		{
			ID:    "f1",
			Title: "Figure 1: composition of the solutions (per-layer words)",
			Run:   expFigure1,
		},
		{
			ID:    "adapt",
			Title: "Adaptivity: words vs f, adaptive BB vs always-quadratic baselines",
			Run:   expAdapt,
		},
		{
			ID:    "dr",
			Title: "Section 4: Dolev–Strong baseline vs adaptive BB at f=0",
			Run:   expDolevReischuk,
		},
		{
			ID:    "dr-sigs",
			Title: "Table 1 annotation: Ω(n²) signatures ride inside O(n) words (f=0)",
			Run:   expDRSignatures,
		},
		{
			ID:    "ablate-quorum",
			Title: "Ablation: ⌈(n+t+1)/2⌉ quorum vs naive t+1 under the split-vote attack",
			Run:   expAblateQuorum,
		},
		{
			ID:    "crypto-ops",
			Title: "CPU proxy: signing/verification operations per protocol",
			Run:   expCryptoOps,
		},
		{
			ID:    "latency",
			Title: "Decision latency (δ rounds) vs f — early stopping behaviour",
			Run:   expLatency,
		},
		{
			ID:    "two-adaptivities",
			Title: "Section 4 contrast: round-adaptive (FloodSet) vs word-adaptive (this paper)",
			Run:   expTwoAdaptivities,
		},
		{
			ID:    "resilience",
			Title: "Section 8: improved resilience n > 2t+1 for BB and weak BA",
			Run:   expResilience,
		},
		{
			ID:    "smr",
			Title: "Application: replicated-log cost per committed command",
			Run:   expSMR,
		},
		{
			ID:    "ablate-phases",
			Title: "Ablation: weak BA with t+1 vs n phases",
			Run:   expAblatePhases,
		},
		{
			ID:    "ablate-silent",
			Title: "Ablation: silent-phase rule on vs off",
			Run:   expAblateSilent,
		},
		{
			ID:    "ablate-cert",
			Title: "Ablation: compact vs aggregate certificate encodings",
			Run:   expAblateCert,
		},
	}
}

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func expT1BB() (string, error) {
	var b strings.Builder
	b.WriteString("BB words, n sweep at f=0 (expected: linear in n):\n")
	outs, err := Sweep(Spec{Protocol: ProtocolBB}, []int{11, 21, 41, 81, 161}, []int{0})
	if err != nil {
		return "", err
	}
	b.WriteString(Table(outs))

	b.WriteString("\nBB words, f sweep at n=41, crash-first-leaders (crashed leaders stay silent, so the cost is FLAT at O(n) below the fallback threshold (n-t-1)/2=10 and jumps to the quadratic regime beyond it):\n")
	outs, err = Sweep(Spec{Protocol: ProtocolBB}, []int{41}, []int{0, 2, 4, 6, 8, 10, 12, 16, 20})
	if err != nil {
		return "", err
	}
	b.WriteString(Table(outs))

	b.WriteString("\nBB words, f sweep at n=41, phase-spamming Byzantine leaders (the O(n(f+1)) worst case: each Byzantine leader burns Θ(n) words):\n")
	outs, err = Sweep(Spec{Protocol: ProtocolBB, Fault: FaultSpam}, []int{41}, []int{0, 2, 4, 6, 8, 10})
	if err != nil {
		return "", err
	}
	b.WriteString(Table(outs))
	return b.String(), nil
}

func expT1StrongBA() (string, error) {
	var b strings.Builder
	b.WriteString("strong BA words, n sweep at f=0 (expected: ~4n, Lemma 8):\n")
	outs, err := Sweep(Spec{Protocol: ProtocolStrongBA}, []int{11, 21, 41, 81, 161}, []int{0})
	if err != nil {
		return "", err
	}
	b.WriteString(Table(outs))

	b.WriteString("\nstrong BA words with failures at n=21 (expected: fallback, quadratic+):\n")
	outs, err = Sweep(Spec{Protocol: ProtocolStrongBA}, []int{21}, []int{1, 5, 10})
	if err != nil {
		return "", err
	}
	b.WriteString(Table(outs))
	return b.String(), nil
}

func expT1WBA() (string, error) {
	var b strings.Builder
	b.WriteString("weak BA words, n sweep at f=0 (expected: linear in n):\n")
	outs, err := Sweep(Spec{Protocol: ProtocolWBA}, []int{11, 21, 41, 81, 161}, []int{0})
	if err != nil {
		return "", err
	}
	b.WriteString(Table(outs))

	b.WriteString("\nweak BA words, f sweep at n=41, crashes (threshold (n-t-1)/2 = 10; fb column = processes that ran the fallback):\n")
	outs, err = Sweep(Spec{Protocol: ProtocolWBA}, []int{41}, []int{0, 2, 4, 6, 8, 10, 11, 14, 20})
	if err != nil {
		return "", err
	}
	b.WriteString(Table(outs))

	b.WriteString("\nweak BA words, f sweep at n=41, phase-spamming Byzantine leaders (the O(n(f+1)) worst case):\n")
	outs, err = Sweep(Spec{Protocol: ProtocolWBA, Fault: FaultSpam}, []int{41}, []int{0, 2, 4, 6, 8, 10})
	if err != nil {
		return "", err
	}
	b.WriteString(Table(outs))
	return b.String(), nil
}

func expFigure1() (string, error) {
	var b strings.Builder
	fs := []int{0, 4, 12}
	specs := make([]Spec, len(fs))
	for i, f := range fs {
		specs[i] = Spec{Protocol: ProtocolBB, N: 41, F: f}
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for i, f := range fs {
		o := &outs[i]
		fmt.Fprintf(&b, "BB at n=41, f=%d — per-layer words (decision %s, fallback procs %d):\n",
			f, o.Decision, o.FallbackCount)
		layers := make([]string, 0, len(o.ByLayer))
		for l := range o.ByLayer {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			s := o.ByLayer[l]
			fmt.Fprintf(&b, "  %-28s %10d words %10d msgs\n", l, s.Words, s.Messages)
		}
		fmt.Fprintf(&b, "  %-28s %10d words %10d msgs\n\n", "TOTAL", o.Words, o.Messages)
	}
	return b.String(), nil
}

func expAdapt() (string, error) {
	var b strings.Builder
	fs := []int{0, 1, 2, 4, 6, 8, 10, 12, 16, 20}
	b.WriteString("words vs f at n=41: adaptive BB (crash and worst-case spam adversaries) vs always-quadratic baselines. The spam column grows ~n per failure; the baselines stay quadratic; the adaptive protocol crosses them only in the fallback regime f > (n-t-1)/2 = 10:\n")
	fmt.Fprintf(&b, "%5s %12s %12s %12s %12s\n", "f", "bb(crash)", "bb(spam)", "echo-bb", "dolev-strong")
	var specs []Spec
	idx := make(map[string]int)
	add := func(key string, s Spec) {
		idx[key] = len(specs)
		specs = append(specs, s)
	}
	for _, f := range fs {
		add(fmt.Sprintf("bb/%d", f), Spec{Protocol: ProtocolBB, N: 41, F: f})
		if f <= 10 { // spam exercises the pre-fallback worst case
			add(fmt.Sprintf("spam/%d", f), Spec{Protocol: ProtocolBB, N: 41, F: f, Fault: FaultSpam})
		}
		add(fmt.Sprintf("echo/%d", f), Spec{Protocol: ProtocolEchoBB, N: 41, F: f})
		add(fmt.Sprintf("ds/%d", f), Spec{Protocol: ProtocolDolevStrong, N: 41, F: f})
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for _, f := range fs {
		spamStr := "-"
		if i, ok := idx[fmt.Sprintf("spam/%d", f)]; ok {
			spamStr = fmt.Sprintf("%d", outs[i].Words)
		}
		fmt.Fprintf(&b, "%5d %12d %12s %12d %12d\n", f,
			outs[idx[fmt.Sprintf("bb/%d", f)]].Words, spamStr,
			outs[idx[fmt.Sprintf("echo/%d", f)]].Words,
			outs[idx[fmt.Sprintf("ds/%d", f)]].Words)
	}
	return b.String(), nil
}

func expDolevReischuk() (string, error) {
	var b strings.Builder
	b.WriteString("failure-free words, n sweep: Dolev–Strong pays Θ(n²)+, adaptive BB pays Θ(n):\n")
	fmt.Fprintf(&b, "%6s %14s %14s %10s\n", "n", "dolev-strong", "adaptive-bb", "ratio")
	ns := []int{11, 21, 41, 81, 161}
	var specs []Spec
	for _, n := range ns {
		specs = append(specs,
			Spec{Protocol: ProtocolDolevStrong, N: n},
			Spec{Protocol: ProtocolBB, N: n})
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for i, n := range ns {
		ds, ad := &outs[2*i], &outs[2*i+1]
		fmt.Fprintf(&b, "%6d %14d %14d %9.1fx\n", n, ds.Words, ad.Words, float64(ds.Words)/float64(ad.Words))
	}
	return b.String(), nil
}

// expDRSignatures regenerates the "(Ω(n²) signatures)" annotation of
// Table 1: Dolev–Reischuk's signature lower bound still holds — Θ(nt)
// component signatures are delivered in every failure-free run — but
// threshold certificates compact them into Θ(n) words. Signatures are
// counted per delivery: a certificate sent to one recipient counts as its
// signer-set size.
func expDRSignatures() (string, error) {
	var b strings.Builder
	b.WriteString("failure-free BB: delivered component signatures vs words (sigs/n² should be ~constant, words/n should be ~constant):\n")
	fmt.Fprintf(&b, "%6s %12s %12s %10s %10s\n", "n", "signatures", "words", "sigs/n²", "words/n")
	ns := []int{11, 21, 41, 81, 161}
	specs := make([]Spec, len(ns))
	for i, n := range ns {
		specs[i] = Spec{Protocol: ProtocolBB, N: n}
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for i, n := range ns {
		o := &outs[i]
		fmt.Fprintf(&b, "%6d %12d %12d %10.2f %10.1f\n", n, o.Signatures, o.Words,
			float64(o.Signatures)/float64(n*n), float64(o.Words)/float64(n))
	}
	return b.String(), nil
}

// expAblateQuorum runs the double-commit attack against both quorum
// choices (the paper's Section 6 key observation).
func expAblateQuorum() (string, error) {
	var b strings.Builder
	b.WriteString("split-vote attack on weak BA (n=9, t=4 corrupted incl. the phase-1 leader):\n")
	for _, naive := range []bool{true, false} {
		params, err := types.NewParams(9)
		if err != nil {
			return "", err
		}
		crypto, err := proto.Setup(params, proto.Derived("ablate-quorum", "d"), threshold.ModeCompact)
		if err != nil {
			return "", err
		}

		override := 0
		quorum := params.Quorum()
		label := fmt.Sprintf("paper quorum ⌈(n+t+1)/2⌉ = %d", quorum)
		if naive {
			override = params.SmallQuorum()
			quorum = override
			label = fmt.Sprintf("naive quorum t+1 = %d", quorum)
		}
		ids := []types.ProcessID{1}
		for i := params.N - 1; len(ids) < params.T; i-- {
			ids = append(ids, types.ProcessID(i))
		}
		adv := attacks.NewWBALeader("q", ids...)
		adv.Faces, adv.Quorum = []types.Value{types.Value("v1"), types.Value("v2")}, override
		cfg := protocols.Config{Params: params, Crypto: crypto, Tag: "q", QuorumOverride: override}
		res, err := sim.Run(sim.Config{
			Params: params,
			Crypto: crypto,
			Factory: func(id types.ProcessID) proto.Machine {
				return ProtocolWBA.MustNew(cfg, id, types.Value("honest"))
			},
			Adversary: adv,
			MaxTicks:  2000,
		})
		if err != nil {
			return "", err
		}
		_, agreement := res.Agreement()
		verdict := "SAFETY VIOLATED (correct processes decided differently)"
		if agreement {
			verdict = "safe (attack failed, agreement held)"
		}
		fmt.Fprintf(&b, "  %-36s -> %s\n", label, verdict)
	}
	return b.String(), nil
}

// expCryptoOps reports the cryptographic work per protocol at n=21:
// signatures created and verified across all correct processes. Aggregate
// certificates shift cost from the network to verification; the word
// model hides this, so it is reported separately.
func expCryptoOps() (string, error) {
	var b strings.Builder
	b.WriteString("signature operations at n=21 (all correct processes combined):\n")
	fmt.Fprintf(&b, "%-14s %4s %10s %12s %10s\n", "protocol", "f", "signs", "verifies", "words")
	rows := []struct {
		p Protocol
		f int
	}{
		{ProtocolBB, 0}, {ProtocolBB, 4},
		{ProtocolWBA, 0}, {ProtocolStrongBA, 0},
		{ProtocolEchoBB, 0}, {ProtocolDolevStrong, 0},
	}
	// CountOps runs without the verification cache: this experiment
	// documents the protocol's inherent verification demand (what ideal
	// constant-size threshold signatures save), which memoization would
	// hide.
	specs := make([]Spec, 0, len(rows)+1)
	for _, row := range rows {
		specs = append(specs, Spec{Protocol: row.p, N: 21, F: row.f, CountOps: true})
	}
	specs = append(specs, Spec{Protocol: ProtocolBB, N: 21, CountOps: true, CertMode: threshold.ModeAggregate})
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for i, row := range rows {
		o := &outs[i]
		fmt.Fprintf(&b, "%-14s %4d %10d %12d %10d\n", row.p, row.f, o.SignOps, o.VerifyOps, o.Words)
	}
	b.WriteString("\nsame BB run, aggregate certificates (every recipient re-verifies each\ncomponent signature — the verification cost ideal threshold schemes avoid):\n")
	o := &outs[len(rows)]
	fmt.Fprintf(&b, "%-14s %4d %10d %12d %10d\n", "bb(aggregate)", 0, o.SignOps, o.VerifyOps, o.Words)
	return b.String(), nil
}

// expLatency measures when the last honest process decides, in δ rounds.
// Crashing the first f rotating leaders delays the deciding phase — the
// round-complexity analogue of early stopping [10]: latency grows with
// the number of failed leaders, not with t.
func expLatency() (string, error) {
	var b strings.Builder
	wbaFs := []int{0, 1, 2, 4, 8}
	sbaFs := []int{0, 1}
	var specs []Spec
	for _, f := range wbaFs {
		specs = append(specs, Spec{Protocol: ProtocolWBA, N: 41, F: f})
	}
	for _, f := range sbaFs {
		specs = append(specs, Spec{Protocol: ProtocolStrongBA, N: 41, F: f})
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	b.WriteString("weak BA decision latency at n=41 (crashing leaders p1..pf delays the deciding phase by 5 rounds each; t would allow 107 rounds of phases):\n")
	fmt.Fprintf(&b, "%5s %18s %14s\n", "f", "decision tick (δ)", "total ticks")
	for i, f := range wbaFs {
		fmt.Fprintf(&b, "%5d %18d %14d\n", f, outs[i].DecisionTick, outs[i].Ticks)
	}
	b.WriteString("\nstrong BA decision latency at n=41 (f=0 decides in 5 rounds; any failure pays the fallback's t+2 double-length rounds):\n")
	fmt.Fprintf(&b, "%5s %18s %14s\n", "f", "decision tick (δ)", "total ticks")
	for i, f := range sbaFs {
		o := &outs[len(wbaFs)+i]
		fmt.Fprintf(&b, "%5d %18d %14d\n", f, o.DecisionTick, o.Ticks)
	}
	return b.String(), nil
}

// expTwoAdaptivities contrasts the two meanings of "adaptive" in the
// literature (paper Section 4): classic early-stopping consensus adapts
// its ROUND count to f but pays Θ(n²) words regardless, while this
// paper's weak BA adapts its WORD count to f. Crash-at-start failures,
// n = 21.
func expTwoAdaptivities() (string, error) {
	var b strings.Builder
	b.WriteString("crash consensus, n=21, distinct inputs, one crash per round (staggered — the early-stopping worst case):\n")
	fmt.Fprintf(&b, "%5s %16s %16s %16s %16s\n", "f", "floodset words", "floodset rounds", "wba words", "wba decide-tick")
	fs := []int{0, 2, 4, 8}
	var specs []Spec
	for _, f := range fs {
		specs = append(specs,
			Spec{Protocol: ProtocolFloodSet, N: 21, F: f, Fault: FaultStagger, Inputs: InputsDistinct},
			Spec{Protocol: ProtocolWBA, N: 21, F: f, Inputs: InputsDistinct})
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for i, f := range fs {
		fsOut, wbaOut := &outs[2*i], &outs[2*i+1]
		fmt.Fprintf(&b, "%5d %16d %16d %16d %16d\n",
			f, fsOut.Words, fsOut.DecisionTick, wbaOut.Words, wbaOut.DecisionTick)
	}
	return b.String(), nil
}

// expResilience exercises the Section 8 observation that the BB / weak BA
// constructions tolerate any n >= 2t+1: fix t and grow n, checking the
// quorum arithmetic, correctness, and the cost's linear growth in n.
func expResilience() (string, error) {
	var b strings.Builder
	b.WriteString("BB at fixed t=5, growing n (n = 2t+1, 3t+1, 4t+1), f = t crashes:\n")
	fmt.Fprintf(&b, "%6s %4s %4s %8s %10s %10s %5s\n", "n", "t", "f", "quorum", "words", "words/n", "ok")
	ns := []int{11, 16, 21}
	specs := make([]Spec, len(ns))
	for i, n := range ns {
		specs[i] = Spec{Protocol: ProtocolBB, N: n, T: 5, F: 5}
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for i, n := range ns {
		o := &outs[i]
		params, err := types.Custom(n, 5)
		if err != nil {
			return "", err
		}
		okStr := "yes"
		if !o.Decided || !o.Agreement || !o.Decision.Equal(types.Value("v")) {
			okStr = "NO"
		}
		fmt.Fprintf(&b, "%6d %4d %4d %8d %10d %10.1f %5s\n",
			n, 5, 5, params.Quorum(), o.Words, float64(o.Words)/float64(n), okStr)
	}
	return b.String(), nil
}

// expSMR measures the replicated log built on the adaptive BB: words per
// committed command and wall-clock (ticks) per command, sequential (W=1)
// vs pipelined slots (W=9, every slot in flight at once: stride
// ceil(D/9)), failure-free vs one crashed proposer.
func expSMR() (string, error) {
	const n, slots = 9, 9
	var b strings.Builder
	fmt.Fprintf(&b, "replicated log over adaptive BB, n=%d, %d slots:\n", n, slots)
	fmt.Fprintf(&b, "%-24s %4s %14s %14s %12s\n", "configuration", "f", "words/commit", "ticks/commit", "committed")
	queues := make([][]types.Value, n)
	for p := range queues {
		queues[p] = []types.Value{
			types.Value(fmt.Sprintf("cmd-%d-0", p)),
			types.Value(fmt.Sprintf("cmd-%d-1", p)),
		}
	}
	for _, row := range []struct {
		label       string
		f, inflight int
	}{
		{"sequential", 0, 1}, {"pipelined (W=9)", 0, slots},
		{"sequential", 1, 1}, {"pipelined (W=9)", 1, slots},
	} {
		rep, err := engine.RunLog(engine.Config{N: n, F: row.f, Inflight: row.inflight}, queues, slots)
		if err != nil {
			return "", err
		}
		committed := max(rep.Committed, 1)
		fmt.Fprintf(&b, "%-24s %4d %14.1f %14.1f %12d\n", row.label, row.f,
			float64(rep.Engine.Metrics.Honest.Words)/float64(committed),
			float64(rep.Engine.Ticks)/float64(committed), committed)
	}
	return b.String(), nil
}

func expAblatePhases() (string, error) {
	var b strings.Builder
	b.WriteString("weak BA, t+1 phases (Alg. 3) vs n phases (Section 6 prose), n=41:\n")
	fmt.Fprintf(&b, "%5s %16s %16s %12s %12s\n", "f", "words(t+1 ph)", "words(n ph)", "ticks(t+1)", "ticks(n)")
	fs := []int{0, 4, 8}
	var specs []Spec
	for _, f := range fs {
		specs = append(specs,
			Spec{Protocol: ProtocolWBA, N: 41, F: f},
			Spec{Protocol: ProtocolWBA, N: 41, F: f, WBAPhases: 41})
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for i, f := range fs {
		a, c := &outs[2*i], &outs[2*i+1]
		fmt.Fprintf(&b, "%5d %16d %16d %12d %12d\n", f, a.Words, c.Words, a.Ticks, c.Ticks)
	}
	return b.String(), nil
}

func expAblateSilent() (string, error) {
	var b strings.Builder
	b.WriteString("weak BA with and without the silent-phase rule, n=41 (without it, every phase costs Θ(n): the adaptivity disappears):\n")
	fmt.Fprintf(&b, "%5s %14s %16s\n", "f", "silent(on)", "silent(off)")
	fs := []int{0, 2, 4}
	var specs []Spec
	for _, f := range fs {
		specs = append(specs,
			Spec{Protocol: ProtocolWBA, N: 41, F: f},
			Spec{Protocol: ProtocolWBA, N: 41, F: f, DisableSilentPhases: true})
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for i, f := range fs {
		on, off := &outs[2*i], &outs[2*i+1]
		fmt.Fprintf(&b, "%5d %14d %16d\n", f, on.Words, off.Words)
	}
	return b.String(), nil
}

func expAblateCert() (string, error) {
	var b strings.Builder
	b.WriteString("certificate encodings at quorum ⌈(n+t+1)/2⌉ (identical word cost = 1; bytes differ):\n")
	fmt.Fprintf(&b, "%6s %8s %16s %16s\n", "n", "quorum", "aggregate(B)", "compact(B)")
	for _, n := range []int{11, 41, 161} {
		params, err := types.NewParams(n)
		if err != nil {
			return "", err
		}
		q := params.Quorum()
		sizes := make(map[threshold.Mode]int, 2)
		for _, mode := range []threshold.Mode{threshold.ModeAggregate, threshold.ModeCompact} {
			crypto, err := proto.Setup(params, proto.Derived("ablate", "d"), mode)
			if err != nil {
				return "", err
			}
			scheme := crypto.Threshold(q)
			msg := []byte("bench")
			shares := make([]threshold.Share, 0, q)
			for i := 0; i < q; i++ {
				sh, err := scheme.SignShare(types.ProcessID(i), msg)
				if err != nil {
					return "", err
				}
				shares = append(shares, sh)
			}
			cert, err := scheme.Combine(msg, shares)
			if err != nil {
				return "", err
			}
			sizes[mode] = cert.Bytes()
		}
		fmt.Fprintf(&b, "%6d %8d %16d %16d\n", n, q,
			sizes[threshold.ModeAggregate], sizes[threshold.ModeCompact])
	}

	b.WriteString("\nend-to-end weak BA run at n=21, f=2 — identical words, different wire bytes:\n")
	fmt.Fprintf(&b, "%-12s %10s %12s\n", "encoding", "words", "bytes")
	modes := []threshold.Mode{threshold.ModeAggregate, threshold.ModeCompact}
	specs := make([]Spec, len(modes))
	for i, mode := range modes {
		specs[i] = Spec{Protocol: ProtocolWBA, N: 21, F: 2, CertMode: mode}
	}
	outs, err := RunAll(specs)
	if err != nil {
		return "", err
	}
	for i, mode := range modes {
		fmt.Fprintf(&b, "%-12s %10d %12d\n", mode, outs[i].Words, outs[i].Bytes)
	}
	return b.String(), nil
}
