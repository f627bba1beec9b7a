package gpusim_test

import (
	"reflect"
	"testing"

	"liger/internal/core"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/trace"
)

// A traced Fig. 10 point — Liger interleaving two batches' kernels over
// four devices, with a trace.Recorder attached — must record the same
// spans, deps and kernel ids on a second identical run on the same node
// type, and the same again with pooling turned off.
func TestKernelPoolTracedFig10Point(t *testing.T) {
	type pooled struct{ kernels, events, colls int }
	run := func(pool bool) (*trace.Recorder, pooled) {
		t.Helper()
		rec := trace.NewRecorder()
		eng, err := core.NewEngine(core.Options{
			Node: hw.A100Node(), Model: model.OPT30B().WithLayers(4),
			Runtime: core.KindLiger, Tracer: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		gpusim.SetPooling(eng.SimNode(), pool)
		arrivals, err := serve.Generate(serve.TraceConfig{
			Batches: 24, BatchSize: 2, RatePerSec: 2000, MinSeq: 16, MaxSeq: 128,
			Phase: model.Context, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Serve(arrivals)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != len(arrivals) {
			t.Fatalf("%d of %d batches completed", res.Completed, len(arrivals))
		}
		var p pooled
		p.kernels, p.events, p.colls = gpusim.Pooled(eng.SimNode())
		return rec, p
	}
	first, p := run(true)
	second, _ := run(true)
	unpooled, _ := run(false)

	spans := first.Spans()
	ids := make([]int, len(spans))
	var colls int
	seenColl := map[int]bool{}
	for _, sp := range spans {
		if sp.ID < 0 || sp.ID >= len(spans) || ids[sp.ID] != 0 {
			t.Fatalf("kernel id %d out of range or recorded twice among %d spans", sp.ID, len(spans))
		}
		ids[sp.ID]++
		if sp.Coll >= 0 && !seenColl[sp.Coll] {
			seenColl[sp.Coll] = true
			colls++
		}
	}
	if len(first.Deps()) != len(spans) {
		t.Fatalf("%d deps for %d spans", len(first.Deps()), len(spans))
	}
	// A pool that is filled but never drawn from ends up holding one
	// object per use: hundreds of collectives, and an end event per
	// device and round, about one per four kernels here.
	if p.kernels == 0 || p.kernels*10 > len(spans) {
		t.Fatalf("%d pooled instances for %d kernels: the pool is not being reused", p.kernels, len(spans))
	}
	if p.events == 0 || p.events*10 > len(spans) {
		t.Fatalf("%d pooled events for %d kernels: the event pool is not being reused", p.events, len(spans))
	}
	if p.colls == 0 || p.colls*10 > colls {
		t.Fatalf("%d pooled collectives for %d collectives: the pool is not being reused", p.colls, colls)
	}
	for name, other := range map[string]*trace.Recorder{"second run": second, "unpooled run": unpooled} {
		if !reflect.DeepEqual(spans, other.Spans()) {
			t.Errorf("%s: spans differ", name)
		}
		if !reflect.DeepEqual(first.Deps(), other.Deps()) {
			t.Errorf("%s: deps differ", name)
		}
	}
}
