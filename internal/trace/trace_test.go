package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

func TestRecorderCollectsSpans(t *testing.T) {
	eng := simclock.New()
	node, err := gpusim.New(eng, hw.V100Node())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	node.SetTracer(rec)
	s := node.NewStream(0)
	s.Launch(gpusim.KernelSpec{Name: "a", Class: gpusim.Compute, Duration: 10 * time.Microsecond, ComputeDemand: 0.5})
	s.Launch(gpusim.KernelSpec{Name: "b", Class: gpusim.Comm, Duration: 5 * time.Microsecond, ComputeDemand: 0.1})
	eng.Run()
	if len(rec.Spans()) != 2 {
		t.Fatalf("recorded %d spans", len(rec.Spans()))
	}
	for _, sp := range rec.Spans() {
		if sp.End <= sp.Start {
			t.Fatalf("span %q has non-positive duration", sp.Name)
		}
	}
	rec.Reset()
	if len(rec.Spans()) != 0 {
		t.Fatal("Reset did not clear spans")
	}
}

func TestChromeTraceExport(t *testing.T) {
	rec := NewRecorder()
	addSpan(rec, 0, "gemm", gpusim.Compute, 0, simclock.Time(10*time.Microsecond))
	addSpan(rec, 1, "ar", gpusim.Comm, simclock.Time(5*time.Microsecond), simclock.Time(20*time.Microsecond))
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var spans []map[string]interface{}
	for _, e := range events {
		if e["ph"] == "X" {
			spans = append(spans, e)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("%d span events", len(spans))
	}
	if spans[1]["tid"] != float64(1) {
		t.Fatal("comm kernel not on track 1")
	}
}

func TestOverlapTime(t *testing.T) {
	rec := NewRecorder()
	us := func(n int) simclock.Time { return simclock.Time(n) * simclock.Time(time.Microsecond) }
	// compute [0,100], comm [40,80]: overlap 40µs on device 0.
	addSpan(rec, 0, "c", gpusim.Compute, us(0), us(100))
	addSpan(rec, 0, "m", gpusim.Comm, us(40), us(80))
	// Device 1: disjoint.
	addSpan(rec, 1, "c", gpusim.Compute, us(0), us(50))
	addSpan(rec, 1, "m", gpusim.Comm, us(50), us(90))
	if ov := rec.OverlapTime(0); ov != us(40) {
		t.Fatalf("device 0 overlap %v, want 40µs", ov)
	}
	if ov := rec.OverlapTime(1); ov != 0 {
		t.Fatalf("device 1 overlap %v, want 0", ov)
	}
}

func TestSoloProfileMatchesDescDurations(t *testing.T) {
	node := hw.V100Node()
	comp := parallel.NewCompiler(node, nccl.Config{ReducedChannels: true})
	ks, err := comp.IntraOp(model.Tiny(), node.NumGPUs,
		model.Workload{Batch: 2, SeqLen: 16, Phase: model.Context})
	if err != nil {
		t.Fatal(err)
	}
	ks = ks[:12]
	durs, err := SoloProfile(node, ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range durs {
		if d != ks[i].Duration {
			t.Fatalf("solo profile of %s = %v, descriptor says %v", ks[i].Name, d, ks[i].Duration)
		}
	}
}

func TestMeasureContentionFindsSlowdown(t *testing.T) {
	node := hw.V100Node()
	gemm := parallel.SyntheticKernel("gemm", gpusim.Compute, 500*time.Microsecond,
		node.Contention.GEMMCompute, node.Contention.GEMMMemBW, false)
	ar := parallel.SyntheticKernel("ar", gpusim.Comm, 400*time.Microsecond,
		node.Contention.CommComputeReduced, node.Contention.CommMemBW, true)
	rep, err := MeasureContention(node, []parallel.KernelDesc{gemm}, []parallel.KernelDesc{ar})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 1 {
		t.Fatalf("pairs = %d", rep.Pairs)
	}
	// GEMM+comm oversubscribe bandwidth on the V100 spec, so both slow —
	// the comm kernel disproportionately (CommBWSensitivity).
	oversub := node.Contention.GEMMMemBW + node.Contention.CommMemBW
	bound := math.Pow(oversub, node.Contention.CommBWSensitivity)
	if rep.MaxFactor < 1.01 {
		t.Fatalf("no contention detected: %+v", rep)
	}
	if rep.MaxFactor > bound+0.05 {
		t.Fatalf("factor %v exceeds sensitivity-adjusted bound %v", rep.MaxFactor, bound)
	}
	if rep.CommFactor <= rep.ComputeFactor {
		t.Fatalf("comm factor %v should exceed compute factor %v under contention",
			rep.CommFactor, rep.ComputeFactor)
	}
}

func TestMeasureContentionNoOverlapNoSlowdown(t *testing.T) {
	node := hw.V100Node()
	// A comm kernel with no bandwidth demand cannot contend.
	gemm := parallel.SyntheticKernel("gemm", gpusim.Compute, 100*time.Microsecond, 0.5, 0.0, false)
	ar := parallel.SyntheticKernel("ar", gpusim.Comm, 100*time.Microsecond, 0.05, 0.0, true)
	rep, err := MeasureContention(node, []parallel.KernelDesc{gemm}, []parallel.KernelDesc{ar})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxFactor > 1.001 {
		t.Fatalf("phantom contention: %+v", rep)
	}
}
