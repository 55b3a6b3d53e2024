package harness

import (
	"bytes"
	"fmt"
	"testing"

	"adaptiveba/internal/crypto/threshold"
	"adaptiveba/internal/types"
)

// TestVerifyCacheDeterminism is the cache-on/cache-off regression for the
// determinism contract: the verification fast path may change CPU cost
// only. For an aggregate-mode sweep, at several pool worker counts, the
// sweep outcomes must be deep-equal (after stripping the cache's own
// knobs and counters) and the emitted CSV must be byte-identical.
func TestVerifyCacheDeterminism(t *testing.T) {
	base := Spec{
		Protocol: ProtocolBB,
		Value:    types.Value("v"),
		Seed:     7,
		CertMode: threshold.ModeAggregate,
		CountOps: true,
	}
	ns := []int{5, 9}
	fs := []int{0, 1}

	type variant struct {
		name    string
		noCache bool
		workers int
	}
	variants := []variant{
		{"cache/pool1", false, 1},
		{"cache/pool2", false, 2},
		{"cache/pool4", false, 4},
		{"nocache/pool1", true, 1},
		{"nocache/pool4", true, 4},
	}
	type result struct {
		outcomes []Outcome
		csv      []byte
	}
	results := make([]result, len(variants))
	for i, v := range variants {
		spec := base
		spec.NoVerifyCache = v.noCache
		outs, err := Pool{Workers: v.workers}.Sweep(spec, ns, fs)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, outs); err != nil {
			t.Fatalf("%s: WriteCSV: %v", v.name, err)
		}
		results[i] = result{outcomes: outs, csv: buf.Bytes()}
	}

	ref := results[0]
	for i, v := range variants[1:] {
		got := results[i+1]
		if !bytes.Equal(got.csv, ref.csv) {
			t.Errorf("%s: CSV differs from %s:\n--- want ---\n%s\n--- got ---\n%s",
				v.name, variants[0].name, ref.csv, got.csv)
		}
		if len(got.outcomes) != len(ref.outcomes) {
			t.Fatalf("%s: %d outcomes, want %d", v.name, len(got.outcomes), len(ref.outcomes))
		}
		for j := range got.outcomes {
			if d := outcomeDiff(normalizeCacheFields(ref.outcomes[j]), normalizeCacheFields(got.outcomes[j])); d != "" {
				t.Errorf("%s outcome %d: %s", v.name, j, d)
			}
		}
	}

	// The cached variants must actually have exercised the cache, and the
	// uncached ones must not report phantom stats.
	for i, v := range variants {
		for j, o := range results[i].outcomes {
			if v.noCache {
				if o.CacheHits != 0 || o.CacheMisses != 0 || o.CacheWaits != 0 {
					t.Errorf("%s outcome %d: cache counters nonzero with cache off: %+v",
						v.name, j, o)
				}
			} else if o.CacheMisses == 0 {
				t.Errorf("%s outcome %d: cache never consulted", v.name, j)
			}
		}
	}
}

// normalizeCacheFields strips the fields the fast path is allowed to
// change: its own spec knob, its counters, and VerifyOps (which counts
// verifications actually computed, i.e. cache misses).
func normalizeCacheFields(o Outcome) Outcome {
	o.Spec.NoVerifyCache = false
	o.CacheHits, o.CacheMisses, o.CacheWaits = 0, 0, 0
	o.VerifyOps = 0
	return o
}

// outcomeDiff compares the measurement fields that must be invariant
// across cache modes, returning a description of the first mismatch.
func outcomeDiff(a, b Outcome) string {
	type row struct {
		name string
		av   any
		bv   any
	}
	rows := []row{
		{"Words", a.Words, b.Words},
		{"Messages", a.Messages, b.Messages},
		{"Signatures", a.Signatures, b.Signatures},
		{"SignOps", a.SignOps, b.SignOps},
		{"Ticks", a.Ticks, b.Ticks},
		{"Decided", a.Decided, b.Decided},
		{"Agreement", a.Agreement, b.Agreement},
		{"FallbackCount", a.FallbackCount, b.FallbackCount},
		{"DecisionTick", a.DecisionTick, b.DecisionTick},
	}
	for _, r := range rows {
		if r.av != r.bv {
			return fmt.Sprintf("%s: %v != %v", r.name, r.av, r.bv)
		}
	}
	if !bytes.Equal(a.Decision, b.Decision) {
		return fmt.Sprintf("Decision: %q != %q", a.Decision, b.Decision)
	}
	if len(a.ByLayer) != len(b.ByLayer) {
		return fmt.Sprintf("ByLayer size: %d != %d", len(a.ByLayer), len(b.ByLayer))
	}
	for k, av := range a.ByLayer {
		if bv, ok := b.ByLayer[k]; !ok || av != bv {
			return fmt.Sprintf("ByLayer[%q]: %+v != %+v", k, av, bv)
		}
	}
	return ""
}

// TestVerifyCacheSavesWork pins the fast path's raison d'être: with the
// cache on, the computed verification count (VerifyOps under CountOps)
// drops strictly below the uncached protocol demand on an aggregate run
// over real signatures (the scheme whose every Verify goes through the
// cache; the HMAC ring's go straight to the ring — TestCountOps).
func TestVerifyCacheSavesWork(t *testing.T) {
	spec := Spec{
		Protocol: ProtocolBB,
		N:        9,
		Value:    types.Value("v"),
		CertMode: threshold.ModeAggregate,
		CountOps: true,
		Ed25519:  true,
	}
	cached, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	uspec := spec
	uspec.NoVerifyCache = true
	uncached, err := Run(uspec)
	if err != nil {
		t.Fatal(err)
	}
	if cached.VerifyOps >= uncached.VerifyOps {
		t.Errorf("cache saved nothing: %d computed vs %d uncached", cached.VerifyOps, uncached.VerifyOps)
	}
	if cached.CacheHits == 0 {
		t.Error("no cache hits on an aggregate BB run")
	}
	// Every computed signature verification is a cache miss, but misses
	// also include whole-certificate entries, so VerifyOps can only be
	// bounded by — never exceed — the miss count.
	if cached.VerifyOps > cached.CacheMisses {
		t.Errorf("VerifyOps (%d) > CacheMisses (%d): counter placement drifted",
			cached.VerifyOps, cached.CacheMisses)
	}
}
