package parallel

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"liger/internal/gpusim"
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

// refStage is one stage of the per-layer pipeline compile: its kernels
// and, for every stage but the last, the send to the next stage.
type refStage struct {
	kernels []KernelDesc
	send    *KernelDesc
}

// pipelinePerLayer is the per-layer pipeline compile: the layers split
// into stages contiguous groups, every layer's ops derived, costed and
// named on their own, as tp pieces per partitioned op (Inter-Th) or as
// the original kernels (tp == 1, Inter-Op). It is the reference the
// stage spans of a pipeline plan must reproduce kernel for kernel.
func pipelinePerLayer(c *Compiler, spec model.Spec, stages int, w model.Workload, tp int) []refStage {
	pieces := func(out []KernelDesc, prefix string, op model.Op) []KernelDesc {
		op.ReduceAfter = false
		if tp == 1 {
			return c.compileOp(out, prefix, op, 1, w)
		}
		switch op.Partition {
		case model.PartCols, model.PartRows, model.PartHeads:
			for p := 0; p < tp; p++ {
				out = c.compileOp(out, fmt.Sprintf("%sp%d.", prefix, p), op, tp, w)
			}
			return out
		default:
			return c.compileOp(out, prefix, op, 1, w)
		}
	}
	var out []refStage
	layer := 0
	for st := 0; st < stages; st++ {
		count := spec.Layers / stages
		if st < spec.Layers%stages {
			count++
		}
		var stage refStage
		if st == 0 {
			for _, op := range model.PreOps(nil, spec, w) {
				stage.kernels = pieces(stage.kernels, "", op)
			}
		}
		for i := 0; i < count; i++ {
			for _, op := range model.LayerOps(nil, spec, w) {
				stage.kernels = pieces(stage.kernels, fmt.Sprintf("l%d.", layer), op)
			}
			layer++
		}
		if st == stages-1 {
			for _, op := range model.PostOps(nil, spec, w) {
				stage.kernels = pieces(stage.kernels, "", op)
			}
		} else {
			bytes := int64(w.Tokens()) * int64(spec.Hidden) * 2
			stage.send = &KernelDesc{
				Name:          fmt.Sprintf("s%d_send", st),
				Class:         gpusim.Comm,
				Duration:      c.comm.P2P(bytes),
				ComputeDemand: c.comm.P2PComputeDemand(),
				MemBWDemand:   c.comm.MemBWDemand(),
				Collective:    true,
				Bytes:         bytes,
			}
		}
		out = append(out, stage)
	}
	return out
}

// pipelinePlan compiles the plan an Inter-Op (theoretical false) or
// Inter-Th pipeline of stages devices runs.
func pipelinePlan(c *Compiler, spec model.Spec, stages int, w model.Workload, theoretical bool) (*Plan, error) {
	if theoretical {
		return c.InterThPlan(spec, stages, w)
	}
	return c.IntraOpPlan(spec, 1, w)
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

// sameSplits fails unless the splittable kernels of layers 0, 1 and the
// last, read out of plan, decompose like want's, the per-layer compile
// of spec.
func sameSplits(t *testing.T, name string, plan *Plan, spec model.Spec, want []KernelDesc) {
	t.Helper()
	splits := 0
	for _, l := range []int{0, 1, spec.Layers - 1} {
		for j := range plan.layer {
			i := len(plan.pre) + l*len(plan.layer) + j
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
			gh, gr, gs, gok := sp.SplitPrefix(Remainder{Root: shared}, gname, 8, 3)
			wh, wr, ws, wok := sp.SplitPrefix(Remainder{Root: &w}, w.Name, 8, 3)
			if !gok || !wok {
				t.Fatalf("%s: SplitPrefix(8, 3) refused", at)
			}
			sameKernels(t, at+" SplitPrefix(8, 3)", append(gh, gr), append(wh, wr))
			grp, _ := Remainder{Root: shared, Scales: []float64{gs}}.Split(gr.Name, 8)
			wrp, _ := Remainder{Root: &w, Scales: []float64{ws}}.Split(wr.Name, 8)
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

// decodeRuns lists decode shapes that share blocks: batch 8 at several
// context lengths, interleaved with batches 3 and 1, in the order given
// (ascending contexts) or reversed, so that a batch's block is compiled
// first at its shortest or at its longest context.
func decodeRuns(reversed bool) []model.Workload {
	var ws []model.Workload
	for _, ctx := range []int{64, 512, 513, 2048, 8192} {
		ws = append(ws,
			model.Workload{Batch: 8, CtxLen: ctx, Phase: model.Decode},
			model.Workload{Batch: 3, CtxLen: ctx + 100, Phase: model.Decode},
			model.Workload{Batch: 8, CtxLen: ctx, SeqLen: 32, Phase: model.Decode},
			model.Workload{Batch: 1, CtxLen: 2 * ctx, Phase: model.Decode})
	}
	if reversed {
		slices.Reverse(ws)
	}
	return ws
}

// The layer-periodic plan expands to exactly the per-layer compile, and
// a kernel read out of the shared layer block decomposes exactly like
// the kernel compiled for its own layer: same piece names, durations
// and bytes, for whole splits, prefix splits and re-split remainders.
// Decode plans of one batch size share their batch's blocks and hold
// their own attention, and still do both, whichever context length
// compiled the blocks and whatever batches, models and degrees the
// compiler saw in between.
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
				if plan.Len() != len(want) || plan.Stored() != len(want)-(spec.Layers-1)*len(plan.layer) {
					t.Fatalf("%s: plan of %d kernels stores %d descriptors", name, plan.Len(), plan.Stored())
				}
				sameSplits(t, name, plan, spec, want)
			}
		}
	}
	type key struct {
		spec      string
		tp, batch int
	}
	for _, reversed := range []bool{false, true} {
		c := compilerFor(hw.A100Node())
		first := make(map[key]*Plan)
		overrides := 0
		for _, w := range decodeRuns(reversed) {
			for _, spec := range []model.Spec{model.OPT30B(), model.GLM130B(), model.Tiny()} {
				for _, tp := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s tp=%d batch=%d ctx=%d reversed=%v", spec.Name, tp, w.Batch, w.CtxLen, reversed)
					plan, err := c.IntraOpPlan(spec, tp, w)
					if err != nil {
						t.Fatal(err)
					}
					want := intraOpPerLayer(c, spec, tp, w)
					sameKernels(t, name, plan.Kernels(), want)
					sameSplits(t, name, plan, spec, want)
					k := key{spec.Name, tp, w.Batch}
					ref, ok := first[k]
					if !ok {
						first[k] = plan
						continue
					}
					if &plan.pre[0] != &ref.pre[0] || &plan.layer[0] != &ref.layer[0] || &plan.post[0] != &ref.post[0] {
						t.Fatalf("%s: the plan does not share its batch's blocks", name)
					}
					if plan.attn != nil {
						overrides++
					}
					for i := 0; i < plan.Len(); i++ {
						got, _ := plan.At(i)
						base, _ := ref.At(i)
						if got != base && got.Name != "attn" {
							t.Fatalf("%s: kernel %d (%s) is not its batch's", name, i, got.Name)
						}
					}
				}
			}
		}
		if overrides == 0 {
			t.Fatalf("reversed=%v: no decode plan held its own attention", reversed)
		}
	}
}

// Every stage span of a pipeline plan is the per-layer stage compile,
// kernel for kernel, and so is every stage's send; the spans tile the
// plan in order. So are those of Inter-Op decode plans, which share
// their batch's blocks, whichever context length compiled the blocks.
func TestStageSpansMatchPerLayerCompile(t *testing.T) {
	for _, reversed := range []bool{false, true} {
		c := compilerFor(hw.A100Node())
		workloads := append([]model.Workload{{Batch: 2, SeqLen: 64, Phase: model.Context}}, decodeRuns(reversed)...)
		for _, w := range workloads {
			for _, spec := range []model.Spec{model.OPT30B(), model.OPT66B(), model.Tiny().WithLayers(7)} {
				for stages := 1; stages <= 4; stages++ {
					for _, theoretical := range []bool{false, true} {
						name := fmt.Sprintf("%s %d stages theoretical=%v %+v", spec.Name, stages, theoretical, w)
						plan, err := pipelinePlan(c, spec, stages, w, theoretical)
						if err != nil {
							t.Fatal(err)
						}
						if err := plan.CheckStages(stages); err != nil {
							t.Fatal(err)
						}
						tp := 1
						if theoretical {
							tp = stages
						}
						want := pipelinePerLayer(c, spec, stages, w, tp)
						next := 0
						for s, ref := range want {
							at := fmt.Sprintf("%s stage %d", name, s)
							lo, hi := plan.StageSpan(s, stages)
							if lo != next {
								t.Fatalf("%s: span [%d, %d) does not start at %d", at, lo, hi, next)
							}
							next = hi
							got := make([]KernelDesc, 0, hi-lo)
							for i := lo; i < hi; i++ {
								k, kname := plan.At(i)
								got = append(got, *k)
								got[len(got)-1].Name = kname
							}
							sameKernels(t, at, got, ref.kernels)
							if ref.send != nil {
								sameKernels(t, at+" send", []KernelDesc{c.StageSend(spec, s, w)}, []KernelDesc{*ref.send})
							}
						}
						if next != plan.Len() {
							t.Fatalf("%s: spans end at %d of %d kernels", name, next, plan.Len())
						}
					}
				}
			}
		}
	}
}

// Compilers are safe to share across goroutines: concurrent Intra-Op
// and Inter-Th compiles of models of different depths grow the shared
// name table under its lock, Inter-Th with its "p<i>." piece names, and
// still produce the per-layer compiles.
func TestConcurrentPlansShareNames(t *testing.T) {
	c := compilerFor(hw.A100Node())
	w := model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context}
	specs := []model.Spec{model.Tiny(), model.OPT30B(), model.GPT175B(), model.GLM130B()}
	intra := make([][]KernelDesc, len(specs))
	interTh := make([][]KernelDesc, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			p, err := c.IntraOpPlan(spec, 4, w)
			if err != nil {
				t.Error(err)
				return
			}
			intra[i] = p.Kernels()
		}()
		go func() {
			defer wg.Done()
			p, err := c.InterThPlan(spec, 4, w)
			if err != nil {
				t.Error(err)
				return
			}
			interTh[i] = p.Kernels()
		}()
	}
	wg.Wait()
	for i, spec := range specs {
		sameKernels(t, spec.Name, intra[i], intraOpPerLayer(c, spec, 4, w))
		var want []KernelDesc
		for _, st := range pipelinePerLayer(c, spec, 4, w, 4) {
			want = append(want, st.kernels...)
		}
		sameKernels(t, spec.Name+" Inter-Th", interTh[i], want)
	}
}

// Concurrent decode compiles of overlapping batches through one
// compiler race to build each batch's blocks under its lock, and every
// plan still expands to the per-layer compile: whichever goroutine's
// context length built a block, the others read their own attention.
func TestConcurrentDecodePlansShareBlocks(t *testing.T) {
	c := compilerFor(hw.A100Node())
	specs := []model.Spec{model.Tiny(), model.OPT30B()}
	const workers = 4
	plans := make([][]*Plan, workers)
	shape := func(g, i int) (model.Spec, int, model.Workload) {
		return specs[i%2], 1 << (i % 3), model.Workload{Batch: 1 + (g+i)%5, CtxLen: 16 + 37*g + 101*i, Phase: model.Decode}
	}
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				spec, tp, w := shape(g, i)
				p, err := c.IntraOpPlan(spec, tp, w)
				if err != nil {
					t.Error(err)
					return
				}
				plans[g] = append(plans[g], p)
			}
		}()
	}
	wg.Wait()
	for g, ps := range plans {
		for i, p := range ps {
			spec, tp, w := shape(g, i)
			sameKernels(t, fmt.Sprintf("%s tp=%d %+v", spec.Name, tp, w), p.Kernels(), intraOpPerLayer(c, spec, tp, w))
		}
	}
}

// A compile allocates only the plan it returns: the Plan and its three
// descriptor blocks. A decomposable kernel describes its split by value,
// the op lists are built on the stack and the kernel and all-reduce
// names are interned, so two shapes of one phase share one names table.
// Once its batch's blocks exist, a decode compile allocates exactly the
// Plan and its own attention descriptor.
func TestIntraOpPlanAllocatesOnlyWhatItKeeps(t *testing.T) {
	c := compilerFor(hw.A100Node())
	spec := model.OPT30B()
	compile := func(w model.Workload) *Plan {
		p, err := c.IntraOpPlan(spec, 4, w)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, phase := range []model.Phase{model.Context, model.Decode} {
		p1 := compile(model.Workload{Batch: 2, SeqLen: 64, CtxLen: 64, Phase: phase})
		w2 := model.Workload{Batch: 5, SeqLen: 96, CtxLen: 320, Phase: phase}
		p2 := compile(w2)
		if &p1.names[0] != &p2.names[0] {
			t.Errorf("%v: two shapes of one phase built separate names tables", phase)
		}
		want, what := 4.0, "the Plan and its three blocks"
		if phase == model.Decode {
			// Batch 5's blocks exist, compiled at context 320.
			w2.CtxLen = 640
			if compile(w2).attn == nil {
				t.Fatal("a decode plan at a new context length shares its batch's attention")
			}
			want, what = 2, "the Plan and its attention"
		}
		if allocs := testing.AllocsPerRun(20, func() { compile(w2) }); allocs != want {
			t.Errorf("%v: a compile allocates %v objects, want %v: %s", phase, allocs, want, what)
		}
	}
}

// A Plan stays in the 112-byte size class: the plan cache holds one per
// shape, and a decode plan's own attention is out of line to keep it
// there.
func TestPlanSize(t *testing.T) {
	if got := unsafe.Sizeof(Plan{}); got > 112 {
		t.Fatalf("Plan is %d bytes, want at most 112", got)
	}
}

// FuzzDecodePlans compiles a fuzzed sequence of decode shapes, each a
// model preset, a degree, a batch and a context length, through one
// compiler, so that each shape may read blocks an earlier shape of its
// batch built, and compares every plan's kernels, splits included, with
// a fresh compiler's.
func FuzzDecodePlans(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 16; n *= 2 {
		steps := make([]byte, 5*n)
		rng.Read(steps)
		f.Add(steps)
	}
	// One batch at three context lengths, another batch between them.
	f.Add([]byte{0, 2, 7, 0, 200, 0, 2, 7, 1, 0, 1, 1, 3, 0, 9, 0, 2, 7, 0, 17})
	specs := []model.Spec{model.OPT30B(), model.GLM130B(), model.Tiny(), model.LLaMA70B()}
	f.Fuzz(func(t *testing.T, steps []byte) {
		c := compilerFor(hw.A100Node())
		// Past 16 shapes an input only repeats what shorter ones cover.
		steps = steps[:min(len(steps), 5*16)]
		for ; len(steps) >= 5; steps = steps[5:] {
			spec, tp := specs[int(steps[0])%len(specs)], 1<<(steps[1]%4)
			w := model.Workload{Batch: 1 + int(steps[2])%32, CtxLen: 1 + int(binary.BigEndian.Uint16(steps[3:])), Phase: model.Decode}
			name := fmt.Sprintf("%s tp=%d %+v", spec.Name, tp, w)
			got, err := c.IntraOpPlan(spec, tp, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := compilerFor(hw.A100Node()).IntraOpPlan(spec, tp, w)
			if err != nil {
				t.Fatal(err)
			}
			gk, wk := got.Kernels(), want.Kernels()
			if len(gk) != len(wk) {
				t.Fatalf("%s: %d kernels, want %d", name, len(gk), len(wk))
			}
			for i := range wk {
				// Every field but the compiler's own cost models.
				g, k := gk[i], wk[i]
				g.costs, k.costs = nil, nil
				if g != k {
					t.Fatalf("%s: kernel %d is\n  %+v\nwant\n  %+v", name, i, g, k)
				}
			}
		}
	})
}
