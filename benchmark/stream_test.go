package main

import "testing"

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamDigest(w.newStream(1), 200), streamDigest(w.newStream(1), 200), streamDigest(w.newStream(2), 200)
		if a != b {
			t.Errorf("%s: the same seed gave op-stream digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op-stream digest %s", w.name, a)
		}
	}
}

func TestReadMostlyStrideIsExact(t *testing.T) {
	w := workloadByName("svc-read-mostly")
	const perWindow = 7000
	if got := w.unitsPerWindow(25, 1); got != perWindow {
		t.Fatalf("units per window at 25 s = %d, want %d", got, perWindow)
	}
	s := w.newStream(3)
	s.preload()
	for win := 0; win < 3; win++ {
		puts := 0
		for j := 0; j < perWindow; j++ {
			o := s.next(win*perWindow + j).ops[0]
			switch {
			case o.kind == opPut && len(o.value) != sizeClass(o.key):
				t.Fatalf("put of %d bytes to key %d changes its size class", len(o.value), o.key)
			case o.kind == opPut:
				puts++
			case o.want == nil:
				t.Fatalf("get of key %d before any put", o.key)
			}
		}
		if puts != 350 {
			t.Errorf("window %d has %d puts, want 350", win, puts)
		}
	}
}

func TestSerialStride(t *testing.T) {
	s := workloadByName("svc-put-serial").newStream(1)
	if n := len(s.preload()); n != numKeys {
		t.Fatalf("preload writes %d keys, want %d", n, numKeys)
	}
	dels := 0
	for i := 0; i < 1600; i++ {
		o := s.next(i).ops[0]
		if (o.kind == opDel) != (i%16 == 15) {
			t.Fatalf("op %d is a %v", i, o.kind)
		}
		if o.kind == opDel {
			dels++
		}
	}
	if _, writes := s.state(); dels != 100 || writes != numKeys+1600 {
		t.Errorf("dels=%d writes=%d, want 100 and %d", dels, writes, numKeys+1600)
	}
}

func TestBurstKeysAreDistinctAndBlobStrideHolds(t *testing.T) {
	s := workloadByName("svc-put-burst32").newStream(1)
	for i := 0; i < 500; i++ {
		u := s.next(i)
		if len(u.ops) != burstOps {
			t.Fatalf("burst %d has %d ops", i, len(u.ops))
		}
		seen := map[int]bool{}
		for j, o := range u.ops {
			if seen[o.key] {
				t.Fatalf("burst %d writes key %d twice", i, o.key)
			}
			seen[o.key] = true
			want := inlineBytes
			if j%16 == 15 {
				want = blob4k
			}
			if o.kind != opPut || len(o.value) != want {
				t.Fatalf("burst %d op %d: %v of %d bytes, want a put of %d", i, j, o.kind, len(o.value), want)
			}
		}
	}
}

func TestLibCallSize(t *testing.T) {
	if libCommitsPerCall != 512 {
		t.Fatalf("a call commits %d commands, want 512", libCommitsPerCall)
	}
	for p, q := range libQueues(1) {
		if len(q) != libRounds*libBatch {
			t.Errorf("queue %d holds %d commands, want %d", p, len(q), libRounds*libBatch)
		}
	}
}
