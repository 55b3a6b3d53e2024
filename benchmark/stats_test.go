package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestFavourableQuartile(t *testing.T) {
	// 24 windows with times 1..24: the 6th best time is 6, and as rates
	// (higher is better) the 6th best is 19.
	vals := make([]float64, numWindows)
	for i := range vals {
		vals[(i*7)%numWindows] = float64(i + 1) // any order
	}
	if got := favourable(vals, false); got != 6 {
		t.Errorf("lower-is-better quartile of 1..24 = %v, want 6", got)
	}
	if got := favourable(vals, true); got != 19 {
		t.Errorf("higher-is-better quartile of 1..24 = %v, want 19", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 1}, {4, 1}, {8, 2}, {12, 3}, {13, 4}} {
		v := make([]float64, c.n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		if got := favourable(v, false); got != c.want {
			t.Errorf("quartile of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
}

// A host episode that slows 10 of the 24 windows threefold must leave the
// reported value where it was.
func TestFavourableIgnoresDisturbedWindows(t *testing.T) {
	quiet := make([]float64, numWindows)
	for i := range quiet {
		quiet[i] = 1 + 0.001*float64(i%5)
	}
	want := favourable(quiet, false)
	disturbed := append([]float64(nil), quiet...)
	for i := 0; i < 10; i++ {
		disturbed[(i*5+2)%numWindows] *= 3
	}
	if got := favourable(disturbed, false); math.Abs(got-want) > 0.004 {
		t.Errorf("quartile moved from %v to %v when 10 windows were inflated 3×", want, got)
	}
	if got := disturbedFrac(disturbed); !near(got, 10.0/24) {
		t.Errorf("disturbed_frac = %v, want 10/24", got)
	}
	if got := disturbedFrac(quiet); got != 0 {
		t.Errorf("disturbed_frac of a quiet run = %v, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 100}, {10, 10}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// Values checked against Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{7, 1, 3, 9, 5, 11, 13, 2, 8, 20})
	if !near(q1, 2.75) || !near(med, 7.5) || !near(q3, 11.5) {
		t.Errorf("quartiles = %v %v %v, want 2.75 7.5 11.5", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(med, 2) || !near(q3, 3) {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestWindowPercentile(t *testing.T) {
	// Four windows of five samples; window medians are 3, 30, 300, 2.
	lat := []float64{1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 100, 200, 300, 400, 500, 0, 1, 2, 3, 4}
	if got := windowPercentile(lat, 5, 1, 50); got != 2 {
		t.Errorf("window p50 quartile = %v, want 2", got)
	}
	// In pairs (the fifth sample of a window is left over) the windows'
	// samples are {3,7}, {30,70}, {300,700}, {1,5}: medians 3, 30, 300, 1.
	if got := windowPercentile(lat, 5, 2, 50); got != 1 {
		t.Errorf("grouped window p50 quartile = %v, want 1", got)
	}
}
