package acs

import (
	"bytes"
	"testing"

	"adaptiveba/internal/types"
	"adaptiveba/internal/wire"
)

func TestBatchRoundTrip(t *testing.T) {
	cases := [][]types.Value{
		nil,
		{types.Value("SET a 1")},
		{types.Value("SET a 1"), types.Value("DEL b"), types.Value("CAS c 1 2")},
	}
	for _, cmds := range cases {
		enc := EncodeBatch(cmds)
		got, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("decode %d cmds: %v", len(cmds), err)
		}
		if len(got.Cmds) != len(cmds) {
			t.Fatalf("round trip %d cmds -> %d", len(cmds), len(got.Cmds))
		}
		for i := range cmds {
			if !got.Cmds[i].Equal(cmds[i]) {
				t.Errorf("cmd %d: %q != %q", i, got.Cmds[i], cmds[i])
			}
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	committed := types.NewBitSet(7)
	committed.Add(0)
	committed.Add(3)
	committed.Add(6)
	res := &Result{
		Committed: committed,
		Batches: []types.Value{
			EncodeBatch([]types.Value{types.Value("SET a 1")}),
			EncodeBatch(nil),
			EncodeBatch([]types.Value{types.Value("DEL b"), types.Value("DEL c")}),
		},
	}
	enc := EncodeResult(res)
	got, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Committed.Equal(committed) {
		t.Errorf("committed %v != %v", got.Committed, committed)
	}
	if len(got.Batches) != 3 {
		t.Fatalf("%d batches, want 3", len(got.Batches))
	}
	for i := range res.Batches {
		if !got.Batches[i].Equal(res.Batches[i]) {
			t.Errorf("batch %d differs", i)
		}
	}
	if got.Requests() != 3 {
		t.Errorf("requests %d, want 3", got.Requests())
	}
}

// TestDecodeBatchHostileLength pins the allocation guard: a frame
// claiming an enormous command count must fail cleanly instead of
// allocating storage for the claim.
func TestDecodeBatchHostileLength(t *testing.T) {
	w := wire.NewWriter()
	w.PutString(Batch{}.Type())
	w.PutInt(1 << 40) // claimed count far beyond maxBatchCmds
	if _, err := DecodeBatch(types.Value(w.Bytes())); err == nil {
		t.Error("hostile batch length decoded without error")
	}

	w = wire.NewWriter()
	w.PutString(Batch{}.Type())
	w.PutInt(maxBatchCmds) // within the cap, but the frame holds no data
	if _, err := DecodeBatch(types.Value(w.Bytes())); err == nil {
		t.Error("truncated batch decoded without error")
	}
}

func TestDecodeResultHostileLength(t *testing.T) {
	w := wire.NewWriter()
	w.PutString(Result{}.Type())
	w.PutBitSet(types.NewBitSet(3))
	w.PutInt(1 << 40)
	if _, err := DecodeResult(types.Value(w.Bytes())); err == nil {
		t.Error("hostile subset size decoded without error")
	}
}

func TestDecodeRejectsWrongType(t *testing.T) {
	if _, err := DecodeBatch(EncodeResult(&Result{Committed: types.NewBitSet(3)})); err == nil {
		t.Error("DecodeBatch accepted an acs/result frame")
	}
	if _, err := DecodeResult(EncodeBatch(nil)); err == nil {
		t.Error("DecodeResult accepted an acs/batch frame")
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to the batch decoder: it must
// never panic nor allocate proportionally to a hostile claimed length,
// and everything it accepts must re-encode to the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(EncodeBatch(nil)))
	f.Add([]byte(EncodeBatch([]types.Value{types.Value("SET a 1"), types.Value("DEL b")})))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(types.Value(data))
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeBatch(b.Cmds), data) {
			t.Errorf("accepted batch frame is not canonical: %x", data)
		}
	})
}

// FuzzDecodeResult is the same contract for the result decoder.
func FuzzDecodeResult(f *testing.F) {
	committed := types.NewBitSet(5)
	committed.Add(1)
	f.Add([]byte(EncodeResult(&Result{Committed: committed, Batches: []types.Value{EncodeBatch(nil)}})))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(types.Value(data))
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeResult(r), data) {
			t.Errorf("accepted result frame is not canonical: %x", data)
		}
		r.Requests() // must not panic on arbitrary inner batches
	})
}

// TestDecodedBatchesStayInsideTheirValue: DecodeBatch and DecodeResult
// read in place, and every command or batch they return ends its
// capacity where it ends, so appending to one reallocates and the
// decided value never changes.
func TestDecodedBatchesStayInsideTheirValue(t *testing.T) {
	batch := EncodeBatch([]types.Value{types.Value("SET a 1"), types.Value("DEL b")})
	committed := types.NewBitSet(4)
	committed.Add(0)
	committed.Add(2)
	result := EncodeResult(&Result{Committed: committed, Batches: []types.Value{batch, EncodeBatch(nil)}})
	for _, tc := range []struct {
		name  string
		v     types.Value
		views func(types.Value) ([]types.Value, error)
	}{
		{"batch command", batch, func(v types.Value) ([]types.Value, error) {
			b, err := DecodeBatch(v)
			if err != nil {
				return nil, err
			}
			return b.Cmds, nil
		}},
		{"result batch", result, func(v types.Value) ([]types.Value, error) {
			r, err := DecodeResult(v)
			if err != nil {
				return nil, err
			}
			return r.Batches, nil
		}},
	} {
		want := tc.v.Clone()
		views, err := tc.views(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range views {
			if cap(c) != len(c) {
				t.Errorf("%s: len %d, cap %d; want cap == len", tc.name, len(c), cap(c))
			}
			_ = append(c, "overwritten"...)
		}
		if !tc.v.Equal(want) {
			t.Errorf("appending to a decoded %s changed the value: %x, want %x", tc.name, []byte(tc.v), []byte(want))
		}
	}
}
