package acs

import (
	"testing"

	"adaptiveba/internal/core/bb"
	"adaptiveba/internal/core/bbviaba"
	"adaptiveba/internal/core/strongba"
	"adaptiveba/internal/core/wba"
	"adaptiveba/internal/types"
)

// TestTickBoundsMatchProbeMachines pins every pure worst-case tick bound
// to the number a probe machine used to be built to report (the literals
// were read off such machines before the functions existed). A bound that
// moved would shift the ACS vote boundary and every engine stride, i.e.
// every schedule.
func TestTickBoundsMatchProbeMachines(t *testing.T) {
	phases := []struct {
		n, bbPhases, wbaPhases int
		wba, bb                types.Tick
	}{
		{4, 0, 0, 27, 44}, {4, 2, 0, 27, 38}, {4, 0, 1, 22, 39}, {4, 3, 2, 27, 41},
		{5, 0, 0, 34, 54}, {5, 2, 0, 34, 45}, {5, 0, 1, 24, 44}, {5, 3, 2, 29, 43},
		{9, 0, 0, 48, 80}, {9, 2, 0, 48, 59}, {9, 0, 1, 28, 60}, {9, 3, 2, 33, 47},
		{33, 0, 0, 132, 236}, {33, 2, 0, 132, 143}, {33, 0, 1, 52, 156}, {33, 3, 2, 57, 71},
	}
	for _, c := range phases {
		_, params := setup(t, c.n)
		if got := wba.MaxTicks(params, c.wbaPhases); got != c.wba {
			t.Errorf("wba.MaxTicks(n=%d, phases=%d) = %d, want %d", c.n, c.wbaPhases, got, c.wba)
		}
		if got := bb.MaxTicks(params, c.bbPhases, c.wbaPhases); got != c.bb {
			t.Errorf("bb.MaxTicks(n=%d, phases=%d, wbaPhases=%d) = %d, want %d", c.n, c.bbPhases, c.wbaPhases, got, c.bb)
		}
	}

	for _, c := range []struct {
		n                       int
		sba, acs, vote, bbviaba types.Tick
	}{
		{4, 21, 69, 44, 25},
		{5, 23, 81, 54, 27},
		{9, 27, 111, 80, 31},
		{33, 51, 291, 236, 55},
	} {
		crypto, params := setup(t, c.n)
		if got := strongba.MaxTicks(params); got != c.sba {
			t.Errorf("strongba.MaxTicks(n=%d) = %d, want %d", c.n, got, c.sba)
		}
		if got := bbviaba.MaxTicks(params); got != c.bbviaba {
			t.Errorf("bbviaba.MaxTicks(n=%d) = %d, want %d", c.n, got, c.bbviaba)
		}
		if got := MaxTicks(params); got != c.acs {
			t.Errorf("acs.MaxTicks(n=%d) = %d, want %d", c.n, got, c.acs)
		}
		a := NewMachine(Config{Params: params, Crypto: crypto})
		if vote := a.VoteBoundary(); vote != c.vote {
			t.Errorf("acs machine (n=%d): VoteBoundary = %d, want %d", c.n, vote, c.vote)
		}
	}
}
