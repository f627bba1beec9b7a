package trace

import (
	"sort"

	"liger/internal/simclock"
)

// Interval is a half-open interval [Start, End) of virtual time. The
// algebra below (Union/Intersect/Subtract/Total) is the one every
// span decomposition is built from: the per-request breakdown and the
// overlap time here, the utilization series in metrics, and the gap
// attribution and overlap report in analyze.
type Interval struct{ Start, End simclock.Time }

// Interval returns the span's execution interval.
func (s Span) Interval() Interval { return Interval{s.Start, s.End} }

// Interval returns the wait's interval.
func (w WaitSpan) Interval() Interval { return Interval{w.Start, w.End} }

// Union sorts the intervals, drops empties and merges overlaps and
// adjacencies, returning a minimal sorted disjoint cover. It does not
// modify in.
func Union(in []Interval) []Interval {
	ivs := make([]Interval, 0, len(in))
	for _, v := range in {
		if v.End > v.Start {
			ivs = append(ivs, v)
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Start != ivs[j].Start {
			return ivs[i].Start < ivs[j].Start
		}
		return ivs[i].End < ivs[j].End
	})
	out := ivs[:0]
	for _, v := range ivs {
		if n := len(out); n > 0 && v.Start <= out[n-1].End {
			if v.End > out[n-1].End {
				out[n-1].End = v.End
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

// Intersect returns a ∩ b; both inputs must be Union covers.
func Intersect(a, b []Interval) []Interval {
	var out []Interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		s, e := a[i].Start, a[i].End
		if b[j].Start > s {
			s = b[j].Start
		}
		if b[j].End < e {
			e = b[j].End
		}
		if e > s {
			out = append(out, Interval{s, e})
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Subtract returns a \ b; both inputs must be Union covers.
func Subtract(a, b []Interval) []Interval {
	var out []Interval
	j := 0
	for _, v := range a {
		s := v.Start
		for j < len(b) && b[j].End <= s {
			j++
		}
		for k := j; k < len(b) && b[k].Start < v.End; k++ {
			if b[k].Start > s {
				out = append(out, Interval{s, b[k].Start})
			}
			if b[k].End > s {
				s = b[k].End
			}
			if s >= v.End {
				break
			}
		}
		if s < v.End {
			out = append(out, Interval{s, v.End})
		}
	}
	return out
}

// Total sums the lengths of a disjoint interval set.
func Total(ivs []Interval) simclock.Time {
	var t simclock.Time
	for _, v := range ivs {
		t += v.End - v.Start
	}
	return t
}
