package parallel

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"liger/internal/hw"
	"liger/internal/model"
)

// intraOpPerLayer is the per-layer compile: every layer's ops derived,
// costed and named on their own. It is the reference a periodic plan
// must reproduce kernel for kernel.
func intraOpPerLayer(c *Compiler, spec model.Spec, tp int, w model.Workload) []KernelDesc {
	var out []KernelDesc
	for _, op := range model.PreOps(nil, spec, w) {
		out = c.compileOp(out, "", op, tp, w)
	}
	for l := 0; l < spec.Layers; l++ {
		prefix := fmt.Sprintf("l%d.", l)
		for _, op := range model.LayerOps(nil, spec, w) {
			out = c.compileOp(out, prefix, op, tp, w)
		}
	}
	for _, op := range model.PostOps(nil, spec, w) {
		out = c.compileOp(out, "", op, tp, w)
	}
	return out
}

// describe renders every field of a kernel but its splitter.
func describe(k KernelDesc) string {
	return fmt.Sprintf("%s %v %v %g %g %v %d %v", k.Name, k.Class, k.Duration,
		k.ComputeDemand, k.MemBWDemand, k.Collective, k.Bytes, k.CanSplit())
}

// sameKernels fails unless got and want describe alike, kernel by kernel.
func sameKernels(t *testing.T, what string, got, want []KernelDesc) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d kernels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := describe(got[i]), describe(want[i]); g != w {
			t.Fatalf("%s: kernel %d is\n  %s\nwant\n  %s", what, i, g, w)
		}
	}
}

// The layer-periodic plan expands to exactly the per-layer compile, and
// a kernel read out of the shared layer block decomposes exactly like
// the kernel compiled for its own layer: same piece names, durations
// and bytes, for whole splits, prefix splits and re-split remainders.
func TestPeriodicPlanMatchesPerLayerCompile(t *testing.T) {
	c := compilerFor(hw.A100Node())
	workloads := []model.Workload{
		{Batch: 2, SeqLen: 64, Phase: model.Context},
		{Batch: 8, CtxLen: 512, Phase: model.Decode},
	}
	for _, spec := range []model.Spec{model.OPT30B(), model.GLM130B(), model.Tiny()} {
		for _, tp := range []int{1, 2, 4} {
			for _, w := range workloads {
				name := fmt.Sprintf("%s tp=%d %v", spec.Name, tp, w.Phase)
				plan, err := c.IntraOpPlan(spec, tp, w)
				if err != nil {
					t.Fatal(err)
				}
				want := intraOpPerLayer(c, spec, tp, w)
				got, err := c.IntraOp(spec, tp, w)
				if err != nil {
					t.Fatal(err)
				}
				sameKernels(t, name, got, want)
				if plan.Len() != len(want) || plan.Stored() != len(want)-(spec.Layers-1)*len(plan.Layer) {
					t.Fatalf("%s: plan of %d kernels stores %d descriptors", name, plan.Len(), plan.Stored())
				}
				splits := 0
				for _, l := range []int{0, 1, spec.Layers - 1} {
					for j := range plan.Layer {
						i := len(plan.Pre) + l*len(plan.Layer) + j
						shared, gname := plan.At(i)
						w := want[i]
						if !w.CanSplit() {
							continue
						}
						splits++
						at := fmt.Sprintf("%s %s", name, w.Name)
						g := *shared
						g.Name = gname
						gp, _ := g.Split(8)
						wp, _ := w.Split(8)
						sameKernels(t, at+" Split(8)", gp, wp)
						var sp Splitter
						gh, gr, gok := sp.SplitPrefix(shared, gname, 8, 3)
						wh, wr, wok := sp.SplitPrefix(&w, w.Name, 8, 3)
						if !gok || !wok {
							t.Fatalf("%s: SplitPrefix(8, 3) refused", at)
						}
						sameKernels(t, at+" SplitPrefix(8, 3)", append(gh, gr), append(wh, wr))
						grp, _ := gr.Split(8)
						wrp, _ := wr.Split(8)
						sameKernels(t, at+" remainder Split(8)", grp, wrp)
						for p := range gp {
							if gp[p].Name != pieceName(g.Name, p, 8) || grp[p].Name != pieceName(gr.Name, p, 8) {
								t.Fatalf("%s: piece %d named %s, remainder piece %s", at, p, gp[p].Name, grp[p].Name)
							}
						}
					}
				}
				if splits == 0 {
					t.Fatalf("%s: no splittable layer kernel compared", name)
				}
			}
		}
	}
}

// Compilers are safe to share across goroutines: concurrent compiles of
// models of different depths grow the shared name table under its lock
// and still produce the per-layer compile.
func TestConcurrentPlansShareNames(t *testing.T) {
	c := compilerFor(hw.A100Node())
	w := model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context}
	specs := []model.Spec{model.Tiny(), model.OPT30B(), model.GPT175B(), model.GLM130B()}
	got := make([][]KernelDesc, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.IntraOpPlan(spec, 4, w)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p.Kernels()
		}()
	}
	wg.Wait()
	for i, spec := range specs {
		sameKernels(t, spec.Name, got[i], intraOpPerLayer(c, spec, 4, w))
	}
}

// A compile allocates only the plan it returns: the Plan, its three
// descriptor blocks, the splitter of each decomposable kernel and the
// name of each all-reduce. The op lists are built on the stack and the
// names table is interned, so two shapes of one phase share one names
// table.
func TestIntraOpPlanAllocatesOnlyWhatItKeeps(t *testing.T) {
	c := compilerFor(hw.A100Node())
	spec := model.OPT30B()
	for _, phase := range []model.Phase{model.Context, model.Decode} {
		w1 := model.Workload{Batch: 2, SeqLen: 64, CtxLen: 64, Phase: phase}
		w2 := model.Workload{Batch: 5, SeqLen: 96, CtxLen: 320, Phase: phase}
		p1, err := c.IntraOpPlan(spec, 4, w1)
		if err != nil {
			t.Fatal(err)
		}
		var p2 *Plan
		allocs := testing.AllocsPerRun(20, func() {
			if p2, err = c.IntraOpPlan(spec, 4, w2); err != nil {
				t.Fatal(err)
			}
		})
		kept := 1 // the Plan
		for _, block := range [][]KernelDesc{p2.Pre, p2.Layer, p2.Post} {
			kept++
			for _, k := range block {
				if k.CanSplit() {
					kept++
				}
				if strings.HasSuffix(k.Name, "_ar") {
					kept++
				}
			}
		}
		if allocs > float64(kept) {
			t.Errorf("%v: a compile allocates %v objects, but its plan keeps %d", phase, allocs, kept)
		}
		if &p1.names[0] != &p2.names[0] {
			t.Errorf("%v: two shapes of one phase built separate names tables", phase)
		}
	}
}
