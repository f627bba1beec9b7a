package bench

import (
	"testing"

	"liger/internal/analyze"
	"liger/internal/core"
	"liger/internal/scenario"
	"liger/internal/serve"
	"liger/internal/simclock"
)

// explainPoint serves the first Fig. 10 panel (OPT-30B on v100, batch
// 2) at a saturation-regime rate under one runtime, with a recorder
// attached, and returns the serving result plus the trace analysis —
// exactly what `ligersim -explain` computes for that configuration.
func explainPoint(t *testing.T, kind core.RuntimeKind, rate float64, cfg RunConfig) (serve.Result, *analyze.Report) {
	t.Helper()
	p := fig10Panels(false)[0]
	out, err := runScenario(p.scenario(scenario.AbsRate(rate), cfg), kind, scenario.RunOptions{Trace: true})
	if err != nil {
		t.Fatalf("serve(%v): %v", kind, err)
	}
	return out.Result, analyze.Analyze(out.Recorder, analyze.Options{})
}

// TestFig10CriticalPathTilesMakespan is the -explain acceptance check
// on the Fig. 10 config: for every runtime the critical-path segments
// tile [0, makespan] exactly — contiguous, in order, and summing to
// the end-to-end makespan the serving layer reports.
func TestFig10CriticalPathTilesMakespan(t *testing.T) {
	p := fig10Panels(false)[0]
	rate := 1.15 * intraCapacity(p)
	cfg := RunConfig{Batches: 40, Seed: 1}
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp} {
		res, rep := explainPoint(t, kind, rate, cfg)
		if got := simclock.Time(res.Makespan); rep.Makespan != got {
			t.Fatalf("%v: analyzer makespan %v != serving makespan %v", kind, rep.Makespan, got)
		}
		segs := rep.CriticalPath.Segments
		if len(segs) == 0 {
			t.Fatalf("%v: empty critical path", kind)
		}
		if segs[0].Start != 0 || segs[len(segs)-1].End != rep.Makespan {
			t.Fatalf("%v: critical path spans [%v, %v], want [0, %v]",
				kind, segs[0].Start, segs[len(segs)-1].End, rep.Makespan)
		}
		var sum simclock.Time
		for i, s := range segs {
			if s.End < s.Start {
				t.Fatalf("%v: segment %d inverted: %+v", kind, i, s)
			}
			if i > 0 && s.Start != segs[i-1].End {
				t.Fatalf("%v: segment %d not contiguous: prev end %v, start %v",
					kind, i, segs[i-1].End, s.Start)
			}
			sum += s.End - s.Start
		}
		if sum != rep.Makespan {
			t.Fatalf("%v: segment durations sum to %v, want makespan %v", kind, sum, rep.Makespan)
		}
		var totals simclock.Time
		for _, v := range rep.CriticalPath.Totals {
			totals += v
		}
		if totals != rep.Makespan {
			t.Fatalf("%v: totals sum to %v, want makespan %v", kind, totals, rep.Makespan)
		}
	}
}

// TestFig10OverlapRanking pins the paper's headline interleaving story
// at a saturation-regime Fig. 10 point:
//
//   - exposed communication on the critical path (comm + rendezvous
//     time the makespan-determining chain is blocked on communication)
//     ranks Liger ≤ Intra-Op ≤ Inter-Op;
//   - the overlap report shows Liger hiding comm under compute while
//     Intra-Op hides none (its all-reduces serialize with the GEMMs);
//   - Inter-Op's communication cost is structurally different: tiny
//     p2p transfers, huge rendezvous-stall occupancy (pipeline
//     bubbles, §2.3.1 launch lag).
func TestFig10OverlapRanking(t *testing.T) {
	p := fig10Panels(false)[0]
	rate := 1.15 * intraCapacity(p)
	cfg := RunConfig{Batches: 40, Seed: 1}

	exposed := map[core.RuntimeKind]simclock.Time{}
	reps := map[core.RuntimeKind]*analyze.Report{}
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp} {
		_, rep := explainPoint(t, kind, rate, cfg)
		reps[kind] = rep
		exposed[kind] = rep.CriticalPath.Totals[analyze.SegComm] + rep.CriticalPath.Totals[analyze.SegRendezvous]
	}
	if !(exposed[core.KindLiger] <= exposed[core.KindIntraOp] &&
		exposed[core.KindIntraOp] <= exposed[core.KindInterOp]) {
		t.Fatalf("exposed comm on critical path: Liger %v, Intra-Op %v, Inter-Op %v; want Liger <= Intra-Op <= Inter-Op",
			exposed[core.KindLiger], exposed[core.KindIntraOp], exposed[core.KindInterOp])
	}

	liger, intra, inter := reps[core.KindLiger].Overlap, reps[core.KindIntraOp].Overlap, reps[core.KindInterOp].Overlap
	if liger.Hidden == 0 {
		t.Fatal("Liger hides no comm under compute at saturation; interleaving is not engaging")
	}
	if intra.Hidden != 0 {
		t.Fatalf("Intra-Op hides %v comm; its all-reduces should serialize with compute", intra.Hidden)
	}
	if liger.ExposedShare >= intra.ExposedShare {
		t.Fatalf("exposed-comm share: Liger %.3f >= Intra-Op %.3f", liger.ExposedShare, intra.ExposedShare)
	}
	if inter.Stall < 10*inter.Comm {
		t.Fatalf("Inter-Op stall %v vs comm %v; expected rendezvous occupancy to dwarf transfer time",
			inter.Stall, inter.Comm)
	}
}
