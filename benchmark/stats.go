package main

import (
	"math"
	"sort"
)

// numWindows is how many equal-work windows a measured phase is cut
// into. Host interference on a shared VM is one-sided (it only ever
// slows a window down) and comes in episodes, so the favourable
// quartile across windows is far steadier than the whole-run mean.
const numWindows = 24

// favourable returns the favourable quartile of per-window values: with
// the values sorted best first it is element ceil(n/4)-1, the 6th best
// of 24. For a rate the best is the highest, for a time the lowest. Up
// to three quarters of the windows may be disturbed before the reported
// value moves.
func favourable(vals []float64, higherBetter bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := (len(s)+3)/4 - 1
	if higherBetter {
		return s[len(s)-1-k]
	}
	return s[k]
}

// percentile is the nearest-rank percentile (0 < p ≤ 100) of an
// ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// median is the nearest-rank median of vals.
func median(vals []float64) float64 { return percentile(sortedCopy(vals), 50) }

// sortedCopy returns an ascending copy of vals.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// disturbedFrac is the share of windows whose wall time exceeded 1.25×
// the favourable-quartile window time: how busy the host was.
func disturbedFrac(wall []float64) float64 {
	if len(wall) == 0 {
		return 0
	}
	limit := 1.25 * favourable(wall, false)
	n := 0
	for _, w := range wall {
		if w > limit {
			n++
		}
	}
	return float64(n) / float64(len(wall))
}

// quartiles returns the first quartile, median and third quartile of
// vals by the "exclusive" method Python's statistics.quantiles(n=4)
// uses, so spreads computed here match the ones the acceptance check
// computes.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := sortedCopy(vals)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
