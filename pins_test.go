package adaptiveba

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// publicPins is every Result field of the four single-instance calls over
// n ∈ {5, 9} × f ∈ {0, 1, t} × {crash, crash-leader, replay}, one line per
// run: call n f pattern, then decision (%q, "-" for ⊥), Bottom, Agreement,
// AllDecided, Words, Messages, Ticks, FallbackProcesses and LayerWords.
// Recorded on the simulator path the calls took before they ran on the
// multi-session engine; a line that moves is a behaviour change.
const publicPins = `
bb 5 0 crash "pin" false true true 28 28 33 0 (root)=4,wba=24
bb 5 0 crash-leader "pin" false true true 28 28 33 0 (root)=4,wba=24
bb 5 0 replay "pin" false true true 28 28 33 0 (root)=4,wba=24
bb 5 1 crash "pin" false true true 22 22 33 0 (root)=4,wba=18
bb 5 1 crash-leader - true true true 33 33 33 0 (root)=11,wba=22
bb 5 1 replay "pin" false true true 22 22 55 0 (root)=4,wba=18
bb 5 2 crash "pin" false true true 142 70 40 3 (root)=4,wba/fb/i0=32,wba/fb/i3=32,wba/fb/i4=32,wba=42
bb 5 2 crash-leader - true true true 154 82 40 3 (root)=10,wba/fb/i2=32,wba/fb/i3=32,wba/fb/i4=32,wba=48
bb 5 2 replay "pin" false true true 142 70 55 3 (root)=4,wba/fb/i0=32,wba/fb/i3=32,wba/fb/i4=32,wba=42
wba 5 0 crash "b" false true true 20 20 17 0 (root)=20
wba 5 0 crash-leader "b" false true true 20 20 17 0 (root)=20
wba 5 0 replay "b" false true true 20 20 17 0 (root)=20
wba 5 1 crash "a" false true true 18 18 17 0 (root)=18
wba 5 1 crash-leader "b" false true true 18 18 17 0 (root)=18
wba 5 1 replay "a" false true true 18 18 35 0 (root)=18
wba 5 2 crash "a" false true true 138 66 24 3 (root)=42,fb/i0=32,fb/i3=32,fb/i4=32
wba 5 2 crash-leader "a" false true true 144 72 24 3 (root)=48,fb/i2=32,fb/i3=32,fb/i4=32
wba 5 2 replay "a" false true true 138 66 35 3 (root)=42,fb/i0=32,fb/i3=32,fb/i4=32
strongba 5 0 crash "\x01" false true true 16 16 4 0 (root)=16
strongba 5 0 crash-leader "\x01" false true true 16 16 4 0 (root)=16
strongba 5 0 replay "\x01" false true true 16 16 4 0 (root)=16
strongba 5 1 crash "\x00" false true true 195 83 12 4 (root)=19,fb/i0=44,fb/i2=44,fb/i3=44,fb/i4=44
strongba 5 1 crash-leader "\x01" false true true 196 84 12 4 (root)=20,fb/i1=44,fb/i2=44,fb/i3=44,fb/i4=44
strongba 5 1 replay "\x00" false true true 195 83 24 4 (root)=19,fb/i0=44,fb/i2=44,fb/i3=44,fb/i4=44
strongba 5 2 crash "\x00" false true true 110 50 12 3 (root)=14,fb/i0=32,fb/i3=32,fb/i4=32
strongba 5 2 crash-leader "\x01" false true true 111 51 12 3 (root)=15,fb/i2=32,fb/i3=32,fb/i4=32
strongba 5 2 replay "\x00" false true true 110 50 24 3 (root)=14,fb/i0=32,fb/i3=32,fb/i4=32
strong 5 0 crash "a" false true true 280 100 3 0 i0=56,i1=56,i2=56,i3=56,i4=56
strong 5 0 crash-leader "a" false true true 280 100 3 0 i0=56,i1=56,i2=56,i3=56,i4=56
strong 5 0 replay "a" false true true 280 100 3 0 i0=56,i1=56,i2=56,i3=56,i4=56
strong 5 1 crash "a" false true true 176 64 3 0 i0=44,i2=44,i3=44,i4=44
strong 5 1 crash-leader "a" false true true 176 64 3 0 i1=44,i2=44,i3=44,i4=44
strong 5 1 replay "a" false true true 176 64 13 0 i0=44,i2=44,i3=44,i4=44
strong 5 2 crash "a" false true true 96 36 3 0 i0=32,i3=32,i4=32
strong 5 2 crash-leader "a" false true true 96 36 3 0 i2=32,i3=32,i4=32
strong 5 2 replay "a" false true true 96 36 13 0 i0=32,i3=32,i4=32
bb 9 0 crash "pin" false true true 56 56 55 0 (root)=8,wba=48
bb 9 0 crash-leader "pin" false true true 56 56 55 0 (root)=8,wba=48
bb 9 0 replay "pin" false true true 56 56 55 0 (root)=8,wba=48
bb 9 1 crash "pin" false true true 46 46 55 0 (root)=8,wba=38
bb 9 1 crash-leader - true true true 69 69 55 0 (root)=23,wba=46
bb 9 1 replay "pin" false true true 46 46 81 0 (root)=8,wba=38
bb 9 4 crash "pin" false true true 700 300 66 5 (root)=8,wba/fb/i0=112,wba/fb/i5=112,wba/fb/i6=112,wba/fb/i7=112,wba/fb/i8=112,wba=132
bb 9 4 crash-leader - true true true 724 324 66 5 (root)=20,wba/fb/i4=112,wba/fb/i5=112,wba/fb/i6=112,wba/fb/i7=112,wba/fb/i8=112,wba=144
bb 9 4 replay "pin" false true true 700 300 81 5 (root)=8,wba/fb/i0=112,wba/fb/i5=112,wba/fb/i6=112,wba/fb/i7=112,wba/fb/i8=112,wba=132
wba 9 0 crash "b" false true true 40 40 27 0 (root)=40
wba 9 0 crash-leader "b" false true true 40 40 27 0 (root)=40
wba 9 0 replay "b" false true true 40 40 27 0 (root)=40
wba 9 1 crash "a" false true true 38 38 27 0 (root)=38
wba 9 1 crash-leader "b" false true true 38 38 27 0 (root)=38
wba 9 1 replay "a" false true true 38 38 49 0 (root)=38
wba 9 4 crash "a" false true true 692 292 38 5 (root)=132,fb/i0=112,fb/i5=112,fb/i6=112,fb/i7=112,fb/i8=112
wba 9 4 crash-leader "a" false true true 704 304 38 5 (root)=144,fb/i4=112,fb/i5=112,fb/i6=112,fb/i7=112,fb/i8=112
wba 9 4 replay "a" false true true 692 292 49 5 (root)=132,fb/i0=112,fb/i5=112,fb/i6=112,fb/i7=112,fb/i8=112
strongba 9 0 crash "\x01" false true true 32 32 4 0 (root)=32
strongba 9 0 crash-leader "\x01" false true true 32 32 4 0 (root)=32
strongba 9 0 replay "\x01" false true true 32 32 4 0 (root)=32
strongba 9 1 crash "\x01" false true true 1558 598 16 8 (root)=86,fb/i0=184,fb/i2=184,fb/i3=184,fb/i4=184,fb/i5=184,fb/i6=184,fb/i7=184,fb/i8=184
strongba 9 1 crash-leader "\x01" false true true 1544 584 16 8 (root)=72,fb/i1=184,fb/i2=184,fb/i3=184,fb/i4=184,fb/i5=184,fb/i6=184,fb/i7=184,fb/i8=184
strongba 9 1 replay "\x01" false true true 1558 598 28 8 (root)=86,fb/i0=184,fb/i2=184,fb/i3=184,fb/i4=184,fb/i5=184,fb/i6=184,fb/i7=184,fb/i8=184
strongba 9 4 crash "\x01" false true true 604 244 16 5 (root)=44,fb/i0=112,fb/i5=112,fb/i6=112,fb/i7=112,fb/i8=112
strongba 9 4 crash-leader "\x01" false true true 605 245 16 5 (root)=45,fb/i4=112,fb/i5=112,fb/i6=112,fb/i7=112,fb/i8=112
strongba 9 4 replay "\x01" false true true 604 244 28 5 (root)=44,fb/i0=112,fb/i5=112,fb/i6=112,fb/i7=112,fb/i8=112
strong 9 0 crash "a" false true true 1872 648 5 0 i0=208,i1=208,i2=208,i3=208,i4=208,i5=208,i6=208,i7=208,i8=208
strong 9 0 crash-leader "a" false true true 1872 648 5 0 i0=208,i1=208,i2=208,i3=208,i4=208,i5=208,i6=208,i7=208,i8=208
strong 9 0 replay "a" false true true 1872 648 5 0 i0=208,i1=208,i2=208,i3=208,i4=208,i5=208,i6=208,i7=208,i8=208
strong 9 1 crash "a" false true true 1472 512 5 0 i0=184,i2=184,i3=184,i4=184,i5=184,i6=184,i7=184,i8=184
strong 9 1 crash-leader "a" false true true 1472 512 5 0 i1=184,i2=184,i3=184,i4=184,i5=184,i6=184,i7=184,i8=184
strong 9 1 replay "a" false true true 1472 512 17 0 i0=184,i2=184,i3=184,i4=184,i5=184,i6=184,i7=184,i8=184
strong 9 4 crash "a" false true true 560 200 5 0 i0=112,i5=112,i6=112,i7=112,i8=112
strong 9 4 crash-leader "a" false true true 560 200 5 0 i4=112,i5=112,i6=112,i7=112,i8=112
strong 9 4 replay "a" false true true 560 200 17 0 i0=112,i5=112,i6=112,i7=112,i8=112
`

// pinRuns calls each single-instance entry point once per grid cell and
// renders its Result as a publicPins line.
func pinRuns(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, n := range []int{5, 9} {
		tMax := (n - 1) / 2
		inputs := make([][]byte, n)
		bits := make([]bool, n)
		for i := range inputs {
			inputs[i] = []byte{'a' + byte(i%2)}
			bits[i] = i%3 != 0
		}
		calls := []struct {
			name string
			run  func(opts ...Option) (*Result, error)
		}{
			{"bb", func(opts ...Option) (*Result, error) {
				return BroadcastContext(context.Background(), n, []byte("pin"), opts...)
			}},
			{"wba", func(opts ...Option) (*Result, error) {
				return WeakAgreeContext(context.Background(), n, inputs, nil, opts...)
			}},
			{"strongba", func(opts ...Option) (*Result, error) {
				return StrongAgreeBinaryContext(context.Background(), n, bits, opts...)
			}},
			{"strong", func(opts ...Option) (*Result, error) {
				return StrongAgreeContext(context.Background(), n, inputs, opts...)
			}},
		}
		for _, call := range calls {
			for _, f := range []int{0, 1, tMax} {
				for _, p := range []FaultPattern{FaultCrash, FaultCrashLeader, FaultReplay} {
					res, err := call.run(WithFaults(f), WithPattern(p), WithSeed(3))
					if err != nil {
						t.Fatalf("%s n=%d f=%d %s: %v", call.name, n, f, p, err)
					}
					lines = append(lines, fmt.Sprintf("%s %d %d %s %s", call.name, n, f, p, pinResult(res)))
				}
			}
		}
	}
	return lines
}

// pinResult renders every field of a Result.
func pinResult(r *Result) string {
	decision := "-"
	if r.Decision != nil {
		decision = fmt.Sprintf("%q", r.Decision)
	}
	layers := make([]string, 0, len(r.LayerWords))
	for layer, words := range r.LayerWords {
		layers = append(layers, fmt.Sprintf("%s=%d", layer, words))
	}
	sort.Strings(layers)
	return fmt.Sprintf("%s %t %t %t %d %d %d %d %s", decision, r.Bottom, r.Agreement, r.AllDecided,
		r.Words, r.Messages, r.Ticks, r.FallbackProcesses, strings.Join(layers, ","))
}

// TestPublicResultPins runs the grid and compares every line with its pin.
func TestPublicResultPins(t *testing.T) {
	got := pinRuns(t)
	want := strings.Split(strings.TrimSpace(publicPins), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d runs, %d pins; the runs:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got    %s\npinned %s", got[i], want[i])
		}
	}
}
