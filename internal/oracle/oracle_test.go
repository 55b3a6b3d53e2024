package oracle

import (
	"strings"
	"testing"

	"adaptiveba/internal/adversary"
	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/core/strongba"
	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
)

func setup(t *testing.T, n int) (*proto.Crypto, types.Params) {
	t.Helper()
	params, err := types.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sig.NewHMACRing(n, []byte("oracle-test"))
	if err != nil {
		t.Fatal(err)
	}
	return proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d")), params
}

// runMonitored executes a weak BA run with the oracle attached.
func runMonitored(t *testing.T, n, quorumOverride int, adv sim.Adversary) (*sim.Result, *WBA) {
	t.Helper()
	crypto, params := setup(t, n)
	mon := NewWBA(params, crypto, "o", quorumOverride)
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return wba.NewMachine(wba.Config{
				Params: params, Crypto: crypto, ID: id,
				Input: types.Value("v"), Predicate: valid.NonBottom(),
				Tag: "o", QuorumOverride: quorumOverride,
			})
		},
		Adversary: adv,
		MaxTicks:  4000,
		OnSend:    mon.OnSend,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, mon
}

func TestCleanRunHasNoViolations(t *testing.T) {
	res, mon := runMonitored(t, 9, 0, nil)
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	if v := mon.Violations(); len(v) != 0 {
		t.Fatalf("violations in a clean run: %v", v)
	}
	if fv := mon.FinalizedValue(); !fv.Equal(types.Value("v")) {
		t.Errorf("oracle saw finalized value %v", fv)
	}
}

func TestAdversarialRunsStayInvariantClean(t *testing.T) {
	advs := map[string]sim.Adversary{
		"crash":  adversary.NewCrash(1, 2, 3),
		"replay": adversary.NewReplay(3, 300, 2, 6),
		"spam":   attacks.Compile(attacks.PhaseSpam(protocols.WBA, 1, 2), protocols.WBA, "o", 1, 4000),
	}
	for name, adv := range advs {
		t.Run(name, func(t *testing.T) {
			res, mon := runMonitored(t, 9, 0, adv)
			if !res.AllDecided() {
				t.Fatal("not all decided")
			}
			if v := mon.Violations(); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
		})
	}
}

// TestOracleDetectsSplitBrain validates the oracle itself: under the
// naive t+1 quorum, the split-vote attack produces two finalize
// certificates, and the monitor must catch it on the wire.
func TestOracleDetectsSplitBrain(t *testing.T) {
	params, _ := types.NewParams(9)
	ids := []types.ProcessID{1}
	for i := params.N - 1; len(ids) < params.T; i-- {
		ids = append(ids, types.ProcessID(i))
	}
	adv := attacks.NewWBALeader("o", ids...)
	adv.Faces, adv.Quorum = []types.Value{types.Value("v1"), types.Value("v2")}, params.SmallQuorum()
	_, mon := runMonitored(t, 9, params.SmallQuorum(), adv)
	violations := mon.Violations()
	found := false
	for _, v := range violations {
		if strings.Contains(v, "Lemma 15") {
			found = true
		}
	}
	if !found {
		t.Fatalf("oracle missed the split-brain: %v", violations)
	}
}

// TestOracleIgnoresForgedCerts: adversarial garbage certificates are not
// violations (only honest processes are held to the invariant).
func TestOracleIgnoresForgedCerts(t *testing.T) {
	crypto, params := setup(t, 9)
	mon := NewWBA(params, crypto, "o", 0)
	forged := &threshold.Cert{K: params.Quorum(), Signers: types.NewBitSet(9), Tag: []byte("junk")}
	mon.OnSend(0, sim.Message{From: 8, To: 0, Payload: wba.Finalized{Phase: 1, V: types.Value("x"), Cert: forged}}, false)
	if v := mon.Violations(); len(v) != 0 {
		t.Errorf("forged cert flagged: %v", v)
	}
	// The same garbage from an HONEST process is a violation.
	mon.OnSend(0, sim.Message{From: 2, To: 0, Payload: wba.Finalized{Phase: 1, V: types.Value("x"), Cert: forged}}, true)
	if v := mon.Violations(); len(v) != 1 {
		t.Errorf("honest invalid cert not flagged: %v", v)
	}
}

func TestOracleFlagsHonestDoubleVote(t *testing.T) {
	crypto, params := setup(t, 9)
	mon := NewWBA(params, crypto, "o", 0)
	mon.OnSend(1, sim.Message{From: 3, To: 1, Payload: wba.Vote{Phase: 2, V: types.Value("a")}}, true)
	mon.OnSend(1, sim.Message{From: 3, To: 1, Payload: wba.Vote{Phase: 2, V: types.Value("a")}}, true) // duplicate ok
	mon.OnSend(1, sim.Message{From: 3, To: 1, Payload: wba.Vote{Phase: 3, V: types.Value("b")}}, true) // other phase ok
	if v := mon.Violations(); len(v) != 0 {
		t.Fatalf("false positives: %v", v)
	}
	mon.OnSend(1, sim.Message{From: 3, To: 1, Payload: wba.Vote{Phase: 2, V: types.Value("b")}}, true)
	if v := mon.Violations(); len(v) != 1 || !strings.Contains(v[0], "two votes") {
		t.Errorf("double vote not flagged: %v", v)
	}
	// Byzantine double votes are expected, not violations.
	mon.OnSend(1, sim.Message{From: 7, To: 1, Payload: wba.Vote{Phase: 2, V: types.Value("a")}}, false)
	mon.OnSend(1, sim.Message{From: 7, To: 1, Payload: wba.Vote{Phase: 2, V: types.Value("b")}}, false)
	if v := mon.Violations(); len(v) != 1 {
		t.Errorf("byzantine votes flagged: %v", v)
	}
}

func TestStrongBAMonitorCleanRuns(t *testing.T) {
	crypto, params := setup(t, 9)
	mon := NewStrongBA(params, crypto, "s")
	res, err := sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			m, err := strongba.NewMachine(strongba.Config{
				Params: params, Crypto: crypto, ID: id, Input: types.One, Tag: "s",
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		Adversary: adversary.NewCrash(3),
		MaxTicks:  2000,
		OnSend:    mon.OnSend,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("not all decided")
	}
	if v := mon.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestStrongBAMonitorFlagsDoubleShares(t *testing.T) {
	crypto, params := setup(t, 9)
	mon := NewStrongBA(params, crypto, "s")
	mon.OnSend(0, sim.Message{From: 2, Payload: strongba.InputShare{V: types.One}}, true)
	mon.OnSend(0, sim.Message{From: 2, Payload: strongba.InputShare{V: types.Zero}}, true)
	if v := mon.Violations(); len(v) != 1 {
		t.Errorf("double input share not flagged: %v", v)
	}
}
