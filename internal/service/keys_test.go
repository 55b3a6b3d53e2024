package service

import (
	"fmt"
	"testing"

	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/proto"
	"adaptiveba/internal/types"
)

// TestCoreKeysAreNotDerivable: a quorum certificate minted under a
// Core's suite does not verify under any suite derived from the engine's
// labels for rounds 0..1023 — the suite each flush ran under when the
// service keyed round r with "engine-<Seed+r>" and the constant
// "engine-dealer". The suite is built once and kept across flushes, and
// two Cores built from one Config hold different keys.
func TestCoreKeysAreNotDerivable(t *testing.T) {
	c := testCore(t, nil)
	crypto := c.crypto
	if _, err := c.Commit([]Op{{Op: OpPut, Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if c.crypto != crypto {
		t.Fatal("a flush changed the Core's suite")
	}

	params, err := types.ParamsFor(c.cfg.N, c.cfg.T)
	if err != nil {
		t.Fatal(err)
	}
	th := c.crypto.Threshold(params.Quorum())
	msg := []byte("committed")
	shares := make([]threshold.Share, th.K())
	for i := range shares {
		if shares[i], err = th.SignShare(types.ProcessID(i), msg); err != nil {
			t.Fatal(err)
		}
	}
	cert, err := th.Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if !th.Verify(msg, cert) {
		t.Fatal("certificate rejected under the suite that minted it")
	}
	if other := testCore(t, nil); other.crypto.Threshold(params.Quorum()).Verify(msg, cert) {
		t.Fatal("two Cores from one Config hold the same keys")
	}
	for r := 0; r < 1024; r++ {
		derived, err := proto.Setup(params, proto.Derived(fmt.Sprintf("engine-%d", r), "engine-dealer"), threshold.ModeCompact)
		if err != nil {
			t.Fatal(err)
		}
		if derived.Threshold(params.Quorum()).Verify(msg, cert) {
			t.Fatalf("certificate verifies under the suite derived for round %d", r)
		}
	}
}
