package core

import (
	"testing"

	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/trace"
)

func TestTracerOptionWired(t *testing.T) {
	rec := trace.NewRecorder()
	eng, err := NewEngine(Options{Node: hw.V100Node(), Model: model.Tiny(), Runtime: KindLiger, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Serve(smallTrace(t, 5, 1000)); err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans()) == 0 {
		t.Fatal("tracer saw no kernels")
	}
}

func TestCompilerOptionsWired(t *testing.T) {
	eng, err := NewEngine(Options{
		Node: hw.V100Node(), Model: model.Tiny(), Runtime: KindLiger,
		CompilerOptions: []parallel.Option{parallel.WithGEMMSplit(parallel.SplitHorizontal)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Serve(smallTrace(t, 5, 1000)); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryCheckRejectsOversizedModels(t *testing.T) {
	// GLM-130B does not fit the V100 node (§4.2): NewEngine must refuse.
	if _, err := NewEngine(Options{Node: hw.V100Node(), Model: model.GLM130B(), Runtime: KindLiger}); err == nil {
		t.Fatal("GLM-130B on V100 accepted")
	}
	// A model at the margin: weights physically fit but the conservative
	// static check (weights + worst-case workspace + safety) refuses.
	edge := model.OPT30B().WithLayers(50)
	if _, err := NewEngine(Options{Node: hw.V100Node(), Model: edge, Runtime: KindIntraOp}); err == nil {
		t.Fatal("marginal model accepted by the static check")
	}
}

func TestWeightsAllocatedOnDevices(t *testing.T) {
	eng, err := NewEngine(Options{Node: hw.A100Node(), Model: model.OPT30B(), Runtime: KindIntraOp})
	if err != nil {
		t.Fatal(err)
	}
	shard := model.OPT30B().WeightBytes() / 4
	for d := 0; d < 4; d++ {
		if used := eng.SimNode().Device(d).MemUsed(); used != shard {
			t.Fatalf("device %d holds %d bytes, want weight shard %d", d, used, shard)
		}
	}
}

func TestWorkspaceReturnedAfterServing(t *testing.T) {
	eng, err := NewEngine(Options{Node: hw.A100Node(), Model: model.OPT30B().WithLayers(4), Runtime: KindLiger})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.SimNode().Device(0).MemUsed()
	if _, err := eng.Serve(smallTrace(t, 20, 500)); err != nil {
		t.Fatal(err)
	}
	if after := eng.SimNode().Device(0).MemUsed(); after != before {
		t.Fatalf("workspace leak: %d bytes before, %d after", before, after)
	}
}

func TestStragglerThroughCoreAPI(t *testing.T) {
	rec := trace.NewRecorder()
	eng, err := NewEngine(Options{Node: hw.A100Node(), Model: model.OPT30B().WithLayers(4), Runtime: KindIntraOp, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	eng.SimNode().Device(1).SetSpeed(0.5)
	slow, err := eng.Serve(smallTrace(t, 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(Options{Node: hw.A100Node(), Model: model.OPT30B().WithLayers(4), Runtime: KindIntraOp})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := eng2.Serve(smallTrace(t, 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if slow.AvgLatency <= fast.AvgLatency {
		t.Fatalf("straggler did not slow serving: %v vs %v", slow.AvgLatency, fast.AvgLatency)
	}
	if rs := rec.RateSamples(); len(rs) != 1 || rs[0].Device != 1 || rs[0].Speed != 0.5 {
		t.Fatalf("tracer saw rate samples %+v, want device 1 at speed 0.5", rs)
	}
	if len(rec.Spans()) == 0 || len(rec.Deps()) == 0 {
		t.Fatalf("tracer saw %d spans and %d deps", len(rec.Spans()), len(rec.Deps()))
	}
}
