package runtimes

import (
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

func rig(t testing.TB) (*simclock.Engine, *gpusim.Node, *parallel.Compiler) {
	t.Helper()
	eng := simclock.New()
	node, err := gpusim.New(eng, hw.V100Node())
	if err != nil {
		t.Fatal(err)
	}
	return eng, node, parallel.NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
}

func buildRuntime(t testing.TB, name string, node *gpusim.Node, comp *parallel.Compiler, spec model.Spec) Runtime {
	t.Helper()
	var rt Runtime
	var err error
	switch name {
	case "Liger":
		rt, err = NewLiger(node, comp, spec, liger.DefaultConfig("v100"))
	case "Intra-Op":
		rt, err = NewIntraOp(node, comp, spec)
	case "Inter-Op":
		rt, err = NewInterOp(node, comp, spec, false)
	case "Inter-Th":
		rt, err = NewInterOp(node, comp, spec, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

var allRuntimes = []string{"Liger", "Intra-Op", "Inter-Op", "Inter-Th"}

func TestAllRuntimesCompleteAllBatches(t *testing.T) {
	for _, name := range allRuntimes {
		t.Run(name, func(t *testing.T) {
			eng, node, comp := rig(t)
			rt := buildRuntime(t, name, node, comp, model.Tiny())
			if rt.Name() != name {
				t.Fatalf("Name = %q", rt.Name())
			}
			var done []Completion
			rt.SetOnDone(func(c Completion) { done = append(done, c) })
			for i := 0; i < 8; i++ {
				at := simclock.Time(i) * simclock.Time(100*time.Microsecond)
				eng.At(at, func(simclock.Time) {
					w := model.Workload{Batch: 2, SeqLen: 16 + 8*(i%4), Phase: model.Context}
					if err := rt.Submit(w); err != nil {
						t.Error(err)
					}
				})
			}
			eng.Run()
			if len(done) != 8 {
				t.Fatalf("%d of 8 completed", len(done))
			}
			for _, c := range done {
				if c.Done <= c.Submitted {
					t.Fatalf("batch %d finished at %v before submission %v", c.ID, c.Done, c.Submitted)
				}
			}
		})
	}
}

func TestCompletionOrderFIFOForUniformBatches(t *testing.T) {
	for _, name := range allRuntimes {
		t.Run(name, func(t *testing.T) {
			eng, node, comp := rig(t)
			rt := buildRuntime(t, name, node, comp, model.Tiny())
			var order []int
			rt.SetOnDone(func(c Completion) { order = append(order, c.ID) })
			eng.After(0, func(simclock.Time) {
				for i := 0; i < 6; i++ {
					if err := rt.Submit(model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context}); err != nil {
						t.Error(err)
					}
				}
			})
			eng.Run()
			for i, id := range order {
				if id != i {
					t.Fatalf("completion order %v", order)
				}
			}
		})
	}
}

func TestIntraOpSerializesBatches(t *testing.T) {
	eng, node, comp := rig(t)
	rt := buildRuntime(t, "Intra-Op", node, comp, model.Tiny())
	var latencies []time.Duration
	rt.SetOnDone(func(c Completion) { latencies = append(latencies, time.Duration(c.Latency())) })
	eng.After(0, func(simclock.Time) {
		for i := 0; i < 4; i++ {
			if err := rt.Submit(model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context}); err != nil {
				t.Error(err)
			}
		}
	})
	eng.Run()
	// Strictly one at a time: each later batch waits for all earlier
	// ones, so latency grows ~linearly.
	for i := 1; i < len(latencies); i++ {
		if latencies[i] <= latencies[i-1] {
			t.Fatalf("intra-op latencies not increasing under queueing: %v", latencies)
		}
	}
	if latencies[3] < 3*latencies[0] {
		t.Fatalf("no serialization evident: %v", latencies)
	}
}

func TestInterOpPipelines(t *testing.T) {
	eng, node, comp := rig(t)
	rt := buildRuntime(t, "Inter-Op", node, comp, model.Tiny())
	var last simclock.Time
	var first time.Duration
	rt.SetOnDone(func(c Completion) {
		last = c.Done
		if first == 0 {
			first = time.Duration(c.Latency())
		}
	})
	const n = 8
	eng.After(0, func(simclock.Time) {
		for i := 0; i < n; i++ {
			if err := rt.Submit(model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context}); err != nil {
				t.Error(err)
			}
		}
	})
	eng.Run()
	// With 4 stages, total time for n batches ≈ first + (n-1)·stage ≈
	// first·(1 + (n-1)/4) — far below n·first (serialized).
	serial := time.Duration(n) * first
	if time.Duration(last) >= serial*3/4 {
		t.Fatalf("pipeline not overlapping: makespan %v vs serial %v", last, serial)
	}
}

func TestInterOpLatencyWorseThanIntraOp(t *testing.T) {
	// §2.2.2: inter-op cannot improve latency — a single uncontended
	// batch runs on one device at a time.
	// Realistic layer dimensions matter here: for toy models the
	// partitioned kernels are floor-dominated and TP stops helping, so
	// use a layer-reduced OPT-30B (the paper's Fig. 3 trick).
	spec := model.OPT30B().WithLayers(4)
	latency := func(name string) time.Duration {
		eng, node, comp := rig(t)
		rt := buildRuntime(t, name, node, comp, spec)
		var lat time.Duration
		rt.SetOnDone(func(c Completion) { lat = time.Duration(c.Latency()) })
		eng.After(0, func(simclock.Time) {
			if err := rt.Submit(model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context}); err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		return lat
	}
	intra := latency("Intra-Op")
	inter := latency("Inter-Op")
	if inter <= intra {
		t.Fatalf("inter-op latency %v not worse than intra-op %v", inter, intra)
	}
}

func TestLigerMatchesIntraOpAtLowRate(t *testing.T) {
	// §3.1: at low arrival rates interleaved parallelism degenerates to
	// the intra-operator approach.
	latency := func(name string) time.Duration {
		eng, node, comp := rig(t)
		rt := buildRuntime(t, name, node, comp, model.Tiny())
		var lat time.Duration
		rt.SetOnDone(func(c Completion) { lat = time.Duration(c.Latency()) })
		eng.After(0, func(simclock.Time) {
			if err := rt.Submit(model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context}); err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		return lat
	}
	intra := latency("Intra-Op")
	lg := latency("Liger")
	ratio := float64(lg) / float64(intra)
	if ratio > 1.1 || ratio < 0.9 {
		t.Fatalf("solo Liger latency %v vs intra-op %v (ratio %.2f)", lg, intra, ratio)
	}
}

func TestLigerSchedulerAccessor(t *testing.T) {
	_, node, comp := rig(t)
	rt, err := NewLiger(node, comp, model.Tiny(), liger.DefaultConfig("v100"))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Scheduler() == nil {
		t.Fatal("nil scheduler")
	}
}

func TestInvalidModelRejected(t *testing.T) {
	_, node, comp := rig(t)
	bad := model.Spec{Name: "bad"}
	if _, err := NewIntraOp(node, comp, bad); err == nil {
		t.Fatal("IntraOp accepted invalid model")
	}
	if _, err := NewInterOp(node, comp, bad, false); err == nil {
		t.Fatal("InterOp accepted invalid model")
	}
	if _, err := NewLiger(node, comp, bad, liger.DefaultConfig("v100")); err == nil {
		t.Fatal("Liger accepted invalid model")
	}
}

// A pipeline needs a layer per stage: on the 4-device node a 3-layer
// model is built but every submit is refused, by both pipelines.
func TestInterOpRejectsMoreStagesThanLayers(t *testing.T) {
	for _, name := range []string{"Inter-Op", "Inter-Th"} {
		_, node, comp := rig(t)
		rt := buildRuntime(t, name, node, comp, model.Tiny().WithLayers(3))
		if err := rt.Submit(model.Workload{Batch: 2, SeqLen: 16, Phase: model.Context}); err == nil {
			t.Fatalf("%s: 4 stages for 3 layers accepted", name)
		}
	}
}

func TestDecodeWorkloadAcrossRuntimes(t *testing.T) {
	for _, name := range allRuntimes {
		t.Run(name, func(t *testing.T) {
			eng, node, comp := rig(t)
			rt := buildRuntime(t, name, node, comp, model.Tiny())
			done := 0
			rt.SetOnDone(func(Completion) { done++ })
			eng.After(0, func(simclock.Time) {
				for i := 0; i < 3; i++ {
					if err := rt.Submit(model.Workload{Batch: 32, CtxLen: 16, Phase: model.Decode}); err != nil {
						t.Error(err)
					}
				}
			})
			eng.Run()
			if done != 3 {
				t.Fatalf("%d of 3 decode batches completed", done)
			}
		})
	}
}

// An Intra-Op submit walks its compiled plan instead of expanding it:
// a whole batch, launch to completion, allocates little beyond the
// plan's own objects once the simulator's pools are warm, though it
// launches 578 kernels per device for OPT-30B at tensor parallelism 4.
func TestIntraOpSubmitAllocatesThePlan(t *testing.T) {
	eng, node, comp := rig(t)
	spec := model.OPT30B()
	rt := buildRuntime(t, "Intra-Op", node, comp, spec)
	done := 0
	rt.SetOnDone(func(Completion) { done++ })
	w := model.Workload{Batch: 4, SeqLen: 128, Phase: model.Context}
	plan, err := comp.IntraOpPlan(spec, node.NumDevices(), w)
	if err != nil {
		t.Fatal(err)
	}
	// The Plan, its three blocks and each splittable descriptor it
	// holds, once: every layer reads the same ones.
	kept := 4
	held := make(map[*parallel.KernelDesc]bool)
	for i := 0; i < plan.Len(); i++ {
		if k, _ := plan.At(i); k.CanSplit() && !held[k] {
			held[k] = true
			kept++
		}
	}
	submit := func() {
		eng.After(0, func(simclock.Time) {
			if err := rt.Submit(w); err != nil {
				t.Fatal(err)
			}
		})
		eng.Run()
	}
	submit()
	allocs := testing.AllocsPerRun(5, submit)
	if done != 7 {
		t.Fatalf("%d batches completed, want 7", done)
	}
	// Beyond the plan: the job, its completion and abort callbacks, and
	// the scheduling of the submit itself.
	if limit := float64(kept + 8); allocs > limit {
		t.Fatalf("a submit allocates %v objects, want at most %v (the plan keeps %d)", allocs, limit, kept)
	}
	t.Logf("%v allocations per submit of %d kernels per device; the plan keeps %d", allocs, plan.Len(), kept)
}
