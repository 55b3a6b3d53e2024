package main

import (
	"crypto/hmac"
	"crypto/sha256"
	"sort"
	"strconv"
	"time"
)

// Host-speed calibration. This VM shares a machine, and its neighbours'
// cache and memory traffic moves the speed of everything here by 20 % and
// more over minutes: identical serial-put runs gave 310 ops/s and, half an
// hour later, 750; a SHA-256 loop stayed flat while a pointer chase
// through 16 MB followed the drift. The window quartile cannot remove what
// lasts longer than a run, so every run also times a fixed reference
// kernel between its windows — allocation, map, sort, copy and HMAC work
// in pure standard library, the kind of work the program does — and
// reports its timings scaled to the speed at which that kernel takes
// refNominal. Over 23 runs per workload on a host that sped up by a third
// in 24 minutes, that cut the quartile spread of ops/s from 15–16 % to
// 3–8 % and the shift between the first and second half of the runs from
// 15–17 % to 1–6 %. The kernel lives in the benchmark, not in the
// program, so a faster program still reads as faster.

// refNominal is the reference kernel's time at reference host speed: about
// what it takes on the baseline host in a quiet spell, so that scaled and
// raw values are of the same size.
const refNominal = 2.6e-3

var (
	// refReps sizes one calibration sample at about 50 ms; the tests
	// shorten it.
	refReps    = 20
	refKey     = []byte("adaptiveba/benchmark/reference")
	refPattern = make([]byte, 16384)
	refSink    []byte
)

// refWork is the reference kernel: five rounds over many small objects,
// then one over buffers of up to 16 KiB, because the program's slowdown
// under contention lies between the two. It must never change: every
// recorded number is relative to it.
func refWork() {
	for r := 0; r < 5; r++ {
		refRound(func(i int) int { return 64 + i%700 })
	}
	refRound(func(i int) int { return 1024 + (i*977)%15000 })
}

// refRound fills a map with 300 keyed, MAC-stamped buffers of size(i)
// bytes, sorts the keys and digests the head of every buffer.
func refRound(size func(i int) int) {
	m := make(map[string][]byte, 64)
	mac := hmac.New(sha256.New, refKey)
	for i := 0; i < 300; i++ {
		k := strconv.Itoa(i * 7919 % 1000)
		mac.Reset()
		mac.Write([]byte(k))
		buf := make([]byte, size(i))
		copy(buf, refPattern)
		copy(buf, mac.Sum(nil))
		m[k] = buf
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write(m[k][:64])
	}
	refSink = h.Sum(nil)
}

// calibrate returns the seconds one refWork takes right now.
func calibrate() float64 {
	t0 := time.Now()
	for i := 0; i < refReps; i++ {
		refWork()
	}
	return time.Since(t0).Seconds() / float64(refReps)
}

// hostSpeed turns calibration samples into the host's speed relative to
// the reference: above 1 the host is faster and measured times are scaled
// up. Like the workload timings it takes the favourable quartile, so both
// sides of the ratio describe the undisturbed part of the run.
func hostSpeed(samples []float64) float64 {
	return refNominal / favourable(samples, false)
}
