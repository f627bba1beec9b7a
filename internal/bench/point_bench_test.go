package bench

import (
	"testing"

	"liger/internal/core"
	"liger/internal/scenario"
)

// BenchmarkFig10Point measures one (panel, rate, runtime) simulation —
// the unit of work the parallel sweep executor fans out. Serial hot-path
// work (event pooling, admission ordering, rate recompute) shows up
// directly here.
func BenchmarkFig10Point(b *testing.B) {
	p := fig10Panels(true)[0]
	cfg := RunConfig{Batches: 40, Quick: true, Seed: 1}
	rate := intraCapacity(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runPoint(p, rate, core.KindLiger, cfg, scenario.LigerSpec{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Compile measures what the scenario run path adds to each
// Fig. 10 point before it serves: building the point's scenario,
// validating it and compiling it.
func BenchmarkFig10Compile(b *testing.B) {
	p := fig10Panels(true)[0]
	cfg := RunConfig{Batches: 40, Quick: true, Seed: 1}
	rate := intraCapacity(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile(p.scenario(scenario.AbsRate(rate), cfg)); err != nil {
			b.Fatal(err)
		}
	}
}
