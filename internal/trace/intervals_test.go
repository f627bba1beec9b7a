package trace

import (
	"math/rand"
	"testing"

	"liger/internal/simclock"
)

// gridCells is the brute-force reference of the interval algebra: the
// set of unit cells [t, t+1) an interval set covers, on a small grid.
const gridCells = 24

func cells(ivs []Interval) [gridCells]bool {
	var c [gridCells]bool
	for _, v := range ivs {
		for t := v.Start; t < v.End; t++ {
			c[t] = true
		}
	}
	return c
}

func randomIntervals(rng *rand.Rand) []Interval {
	ivs := make([]Interval, rng.Intn(6))
	for i := range ivs {
		s := simclock.Time(rng.Intn(gridCells))
		// Some intervals are empty or inverted: Union must drop them.
		ivs[i] = Interval{s, s + simclock.Time(rng.Intn(8)-1)}
		if ivs[i].End > gridCells {
			ivs[i].End = gridCells
		}
	}
	return ivs
}

// checkCover fails unless ivs is sorted, disjoint and non-adjacent
// with no empty member: the form Intersect and Subtract require.
func checkCover(t *testing.T, what string, ivs []Interval) {
	t.Helper()
	for i, v := range ivs {
		if v.End <= v.Start || (i > 0 && v.Start <= ivs[i-1].End) {
			t.Fatalf("%s is not a minimal sorted cover: %v", what, ivs)
		}
	}
}

// TestIntervalAlgebraMatchesUnitGrid checks Union, Intersect, Subtract
// and Total on random small interval sets against the cell sets they
// cover.
func TestIntervalAlgebraMatchesUnitGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 5000; n++ {
		rawA, rawB := randomIntervals(rng), randomIntervals(rng)
		a, b := Union(rawA), Union(rawB)
		checkCover(t, "Union", a)
		ca, cb := cells(rawA), cells(rawB)
		if cells(a) != ca {
			t.Fatalf("Union(%v) = %v covers different cells", rawA, a)
		}
		var and, diff [gridCells]bool
		var want simclock.Time
		for i := range ca {
			and[i] = ca[i] && cb[i]
			diff[i] = ca[i] && !cb[i]
			if ca[i] {
				want++
			}
		}
		if got := Total(a); got != want {
			t.Fatalf("Total(%v) = %v, want %v cells", a, got, want)
		}
		in := Intersect(a, b)
		checkCover(t, "Intersect", in)
		if cells(in) != and {
			t.Fatalf("Intersect(%v, %v) = %v", a, b, in)
		}
		sub := Subtract(a, b)
		checkCover(t, "Subtract", sub)
		if cells(sub) != diff {
			t.Fatalf("Subtract(%v, %v) = %v", a, b, sub)
		}
	}
}
