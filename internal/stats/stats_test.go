package stats

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func ds(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Microsecond
	}
	return out
}

func TestMean(t *testing.T) {
	if m := Mean(ds(10, 20, 30)); m != 20*time.Microsecond {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
}

func TestPercentile(t *testing.T) {
	d := ds(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 5 * time.Microsecond},
		{90, 9 * time.Microsecond},
		{100, 10 * time.Microsecond},
		{0, 1 * time.Microsecond},
	}
	for _, c := range cases {
		if got := Percentile(d, c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	// Out-of-range p is clamped.
	if Percentile(d, 150) != 10*time.Microsecond {
		t.Error("p>100 not clamped")
	}
	if Percentile(d, -3) != 1*time.Microsecond {
		t.Error("p<0 not clamped")
	}
}

// Property: Percentiles must be value-identical to N independent
// Percentile calls — it only changes the number of sorts, not results.
func TestPercentilesMatchesPercentile(t *testing.T) {
	ps := []float64{0, 1, 25, 50, 75, 90, 95, 99, 100, -3, 150}
	f := func(raw []uint16) bool {
		d := make([]time.Duration, len(raw))
		for i, v := range raw {
			d[i] = time.Duration(v) * time.Microsecond
		}
		got := Percentiles(d, ps...)
		for i, p := range ps {
			if got[i] != Percentile(d, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if got := Percentiles(nil, 50, 99); got[0] != 0 || got[1] != 0 {
		t.Fatalf("Percentiles(nil) = %v, want zeros", got)
	}
	if got := Percentiles(ds(1, 2, 3)); len(got) != 0 {
		t.Fatalf("Percentiles with no ps = %v, want empty", got)
	}
}

func TestPercentilesDoesNotMutate(t *testing.T) {
	d := ds(5, 1, 3)
	Percentiles(d, 50, 99)
	if d[0] != 5*time.Microsecond {
		t.Fatal("Percentiles sorted the caller's slice")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	d := ds(5, 1, 3)
	Percentile(d, 50)
	if d[0] != 5*time.Microsecond {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

func TestMinMax(t *testing.T) {
	d := ds(7, 3, 9, 1)
	if Max(d) != 9*time.Microsecond || slices.Min(d) != 1*time.Microsecond {
		t.Fatalf("Max=%v Min=%v", Max(d), slices.Min(d))
	}
	if Max(nil) != 0 {
		t.Fatal("empty Max not zero")
	}
}

func TestNormalize(t *testing.T) {
	n := Normalize(ds(25, 50, 100))
	want := []float64{0.25, 0.5, 1.0}
	for i := range want {
		if n[i] != want[i] {
			t.Fatalf("Normalize = %v", n)
		}
	}
	z := Normalize(ds(0, 0))
	for _, v := range z {
		if v != 0 {
			t.Fatal("all-zero normalize should stay zero")
		}
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := CoefficientOfVariation(ds(5, 5, 5, 5)); cv != 0 {
		t.Fatalf("constant CoV = %v", cv)
	}
	spread := CoefficientOfVariation(ds(1, 100))
	tight := CoefficientOfVariation(ds(49, 51))
	if spread <= tight {
		t.Fatalf("CoV ordering wrong: %v vs %v", spread, tight)
	}
	if CoefficientOfVariation(ds(5)) != 0 {
		t.Fatal("single-sample CoV should be 0")
	}
}

// Property: Min <= Mean <= Max, and Percentile is monotone in p.
func TestPropertyOrderings(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		d := make([]time.Duration, len(raw))
		for i, v := range raw {
			d[i] = time.Duration(v) * time.Microsecond
		}
		if slices.Min(d) > Mean(d) || Mean(d) > Max(d) {
			return false
		}
		last := time.Duration(0)
		for _, p := range []float64{0, 25, 50, 75, 100} {
			v := Percentile(d, p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
