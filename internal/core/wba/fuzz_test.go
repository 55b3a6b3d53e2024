package wba

import (
	"testing"

	"adaptiveba/internal/core/valid"
	"adaptiveba/internal/crypto/sig"
	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

// FuzzMachineIngest drives a weak BA machine with adversarially mutated
// payloads: whatever the registry decodes must never panic the machine or
// trick it into an unsound decision (a decision without a valid
// certificate).
func FuzzMachineIngest(f *testing.F) {
	reg := wire.NewRegistry()
	RegisterWire(reg)

	params, err := types.NewParams(5)
	if err != nil {
		f.Fatal(err)
	}
	ring, err := sig.NewHMACRing(5, []byte("fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	crypto := proto.NewCrypto(params, ring, threshold.ModeCompact, []byte("d"))

	// Seed corpus: one well-formed frame per payload type.
	share, err := ring.Sign(1, []byte("x"))
	if err != nil {
		f.Fatal(err)
	}
	seeds := []proto.Payload{
		Propose{Phase: 1, V: types.Value("v")},
		Vote{Phase: 1, V: types.Value("v"), Share: share},
		Commit{Phase: 1, V: types.Value("v"), Level: 1},
		Finalized{Phase: 1, V: types.Value("v")},
		HelpReq{Share: share},
		Help{V: types.Value("v"), ProofPhase: 1},
		FallbackCert{V: types.Value("v")},
	}
	for _, p := range seeds {
		frame, err := wire.EncodePayload(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, uint8(0), uint8(3))
	}

	f.Fuzz(func(t *testing.T, frame []byte, fromRaw, tickRaw uint8) {
		payload, err := reg.DecodePayload(frame)
		if err != nil {
			return
		}
		m := NewMachine(Config{
			Params: params, Crypto: crypto, ID: 0,
			Input: types.Value("own"), Predicate: valid.NonBottom(), Tag: "fz",
		})
		m.Begin(0, nil)
		from := types.ProcessID(fromRaw % 5)
		horizon := types.Tick(tickRaw%40) + 1
		for now := types.Tick(1); now <= horizon; now++ {
			var inbox []proto.Incoming
			if now == horizon/2+1 {
				inbox = []proto.Incoming{{From: from, Payload: payload}}
			}
			m.Tick(now, inbox, nil) // must not panic
		}
		// A single injected message can never legitimately decide this
		// machine: every decision path needs a quorum certificate, and
		// the fuzzer cannot forge one.
		if v, ok := m.Output(); ok {
			// The only way to decide is a valid Finalized/Help
			// certificate, which requires Quorum()=4 genuine signatures
			// over the exact instance tag. Reaching here means forgery.
			t.Fatalf("machine decided %v from a fuzzed message", v)
		}
	})
}
