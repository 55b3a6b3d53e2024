// Corpus coverage for the full payload registry: short harness runs of
// every protocol capture one encoded instance of each registered
// message type, seeding the round-trip fuzz target with real frames.
// Lives in package wire_test because it drives harness and transport,
// which themselves import wire.
package wire_test

import (
	"fmt"
	"sync"
	"testing"

	"adaptiveba/internal/acs"
	"adaptiveba/internal/adversary/attacks"
	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/harness"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/protocols"
	"adaptiveba/internal/sim"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// corpusRuns is the spec matrix that exercises every payload type:
// fallback-regime f for the help/fallback messages, spam for the
// leader-phase messages, and each baseline protocol once.
var corpusRuns = []harness.Spec{
	{Protocol: harness.ProtocolBB, N: 9, F: 3},
	{Protocol: harness.ProtocolBB, N: 9, F: 2, Fault: harness.FaultSpam},
	// A crashed sender forces the idk path: helpers sign ⟨idk⟩ shares
	// and the phase leader broadcasts the vetted idk certificate.
	{Protocol: harness.ProtocolBB, N: 9, F: 1, Fault: harness.FaultCrashLeader},
	{Protocol: harness.ProtocolWBA, N: 9, F: 3},
	{Protocol: harness.ProtocolWBA, N: 9, F: 2, Fault: harness.FaultSpam},
	// With silent phases disabled, later leaders keep proposing after
	// the decision, so committed processes answer with commit-info.
	{Protocol: harness.ProtocolWBA, N: 9, F: 0, DisableSilentPhases: true},
	{Protocol: harness.ProtocolStrongBA, N: 9, F: 2},
	// The decide broadcast needs all n decide shares, i.e. f = 0.
	{Protocol: harness.ProtocolStrongBA, N: 9, F: 0},
	{Protocol: harness.ProtocolBBViaBA, N: 9, F: 1},
	{Protocol: harness.ProtocolDolevStrong, N: 5, F: 1},
	{Protocol: harness.ProtocolEchoBB, N: 5, F: 0},
}

var (
	corpusOnce   sync.Once
	corpusFrames map[string][]byte
	corpusErr    error
)

// captureCorpus runs the matrix once and keeps the first encoded frame
// of every payload type seen on the simulated network.
func captureCorpus() (map[string][]byte, error) {
	corpusOnce.Do(func() {
		reg := protocols.Registry()
		frames := make(map[string][]byte)
		for i := range corpusRuns {
			spec := corpusRuns[i]
			var encodeErr error
			spec.OnSend = func(_ types.Tick, m sim.Message, _ bool) {
				typ := m.Payload.Type()
				if _, seen := frames[typ]; seen || encodeErr != nil {
					return
				}
				buf, err := reg.EncodePayload(m.Payload)
				if err != nil {
					encodeErr = err
					return
				}
				frames[typ] = buf
			}
			if _, err := harness.Run(spec); err != nil {
				corpusErr = err
				return
			}
			if encodeErr != nil {
				corpusErr = encodeErr
				return
			}
		}
		if err := captureHelpRun(reg, frames); err != nil {
			corpusErr = err
			return
		}
		if err := captureACSRun(frames); err != nil {
			corpusErr = err
			return
		}
		corpusFrames = frames
	})
	return corpusFrames, corpusErr
}

// captureACSRun covers the ACS payload types. They never appear as
// top-level messages on the simulated network — a batch rides inside BB
// dissemination as opaque value bytes, and the result is the round's
// decision — so OnSend cannot harvest them. Instead a real ProtocolACS
// run's decided Outcome.Decision IS a framed acs/result (the machine's
// canonical output), and each of its committed batches is a framed
// acs/batch.
func captureACSRun(frames map[string][]byte) error {
	out, err := harness.Run(harness.Spec{Protocol: harness.ProtocolACS, N: 5, F: 1, Batch: 2})
	if err != nil {
		return err
	}
	if !out.Agreement || out.Decision == nil {
		return fmt.Errorf("corpus acs run did not decide")
	}
	result, err := acs.DecodeResult(out.Decision)
	if err != nil {
		return err
	}
	if len(result.Batches) == 0 {
		return fmt.Errorf("corpus acs run committed no batches")
	}
	if _, seen := frames[acs.Result{}.Type()]; !seen {
		frames[acs.Result{}.Type()] = []byte(out.Decision)
	}
	if _, seen := frames[acs.Batch{}.Type()]; !seen {
		frames[acs.Batch{}.Type()] = []byte(result.Batches[0])
	}
	return nil
}

// captureHelpRun emits wba/help, which no harness fault model produces:
// the help answer is only sent by a decided process to an undecided
// peer, so a Byzantine phase leader must finalize everyone except one
// victim. This mirrors the attacks package's selective-finalize test.
func captureHelpRun(reg *wire.Registry, frames map[string][]byte) error {
	params, err := types.NewParams(9)
	if err != nil {
		return err
	}
	ring, err := sig.NewHMACRing(params.N, []byte("corpus-help"))
	if err != nil {
		return err
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))
	// p1 leads one face, "v", and denies p3 the finalize.
	adv := attacks.Compile(attacks.Coalition(params.N, params.T, attacks.Move{Op: attacks.OpLead, Target: 3}), protocols.WBA, "s", 1, 2000)
	var encodeErr error
	_, err = sim.Run(sim.Config{
		Params: params,
		Crypto: crypto,
		Factory: func(id types.ProcessID) proto.Machine {
			return wba.NewMachine(wba.Config{
				Params: params, Crypto: crypto, ID: id,
				Input: types.Value("v"), Predicate: valid.NonBottom(), Tag: "s",
			})
		},
		Adversary: adv,
		MaxTicks:  2000,
		OnSend: func(_ types.Tick, m sim.Message, _ bool) {
			typ := m.Payload.Type()
			if _, seen := frames[typ]; seen || encodeErr != nil {
				return
			}
			buf, err := reg.EncodePayload(m.Payload)
			if err != nil {
				encodeErr = err
				return
			}
			frames[typ] = buf
		},
	})
	if err != nil {
		return err
	}
	return encodeErr
}

// TestCorpusCoversEveryRegisteredType pins the matrix to the registry:
// adding a payload type without extending the corpus is a test failure,
// so the fuzz seeds can never silently go stale.
func TestCorpusCoversEveryRegisteredType(t *testing.T) {
	frames, err := captureCorpus()
	if err != nil {
		t.Fatal(err)
	}
	reg := protocols.Registry()
	for _, typ := range reg.Types() {
		if _, ok := frames[typ]; !ok {
			t.Errorf("no corpus run emits payload type %q — extend corpusRuns", typ)
		}
	}
	for typ := range frames {
		if _, err := reg.DecodePayload(frames[typ]); err != nil {
			t.Errorf("captured frame for %q does not decode: %v", typ, err)
		}
	}
}

// FuzzFullRegistryRoundTrip seeds the registry decoder with one real
// frame per registered message type; any decodable mutation must
// re-encode without error.
func FuzzFullRegistryRoundTrip(f *testing.F) {
	frames, err := captureCorpus()
	if err != nil {
		f.Fatal(err)
	}
	for _, buf := range frames {
		f.Add(buf)
	}
	f.Add([]byte{})
	reg := protocols.Registry()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := reg.DecodePayload(data) // must not panic
		if err != nil {
			return
		}
		buf, err := reg.EncodePayload(p)
		if err != nil {
			t.Fatalf("decoded %q payload does not re-encode: %v", p.Type(), err)
		}
		p2, err := reg.DecodePayload(buf)
		if err != nil {
			t.Fatalf("re-encoded %q payload does not decode: %v", p.Type(), err)
		}
		if p2.Type() != p.Type() {
			t.Fatalf("type changed across round trip: %q -> %q", p.Type(), p2.Type())
		}
	})
}
