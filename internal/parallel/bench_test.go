package parallel

import (
	"testing"

	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
)

// BenchmarkCompileIntraOp measures full-model kernel compilation cost
// (done once per arriving batch in the serving path).
func BenchmarkCompileIntraOp(b *testing.B) {
	c := NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	w := model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context}
	spec := model.OPT30B()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.IntraOp(spec, 4, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileIntraOpPlan measures one plan-cache miss of the
// Liger assembler: the layer-periodic plan, not expanded.
func BenchmarkCompileIntraOpPlan(b *testing.B) {
	c := NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	w := model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context}
	spec := model.OPT30B()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.IntraOpPlan(spec, 4, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileDecodePlan measures one decode plan-cache miss in
// continuous serving: a new context length of a batch size whose blocks
// the compiler holds, so only the attention kernel is compiled.
func BenchmarkCompileDecodePlan(b *testing.B) {
	c := NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	spec := model.OPT30B()
	w := model.Workload{Batch: 8, CtxLen: 512, Phase: model.Decode}
	if _, err := c.IntraOpPlan(spec, 4, w); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.CtxLen = 513 + i%1024
		if _, err := c.IntraOpPlan(spec, 4, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilePipelinePlan measures the per-batch compile of the
// pipeline baselines on a 4-stage node: Inter-Op's single-device plan
// and Inter-Th's plan of 4-way partitioned pieces.
func BenchmarkCompilePipelinePlan(b *testing.B) {
	c := NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	w := model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context}
	spec := model.OPT30B()
	b.Run("Inter-Op", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.IntraOpPlan(spec, 1, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Inter-Th", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.InterThPlan(spec, 4, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSplitGEMM measures runtime decomposition cost (fired inside
// the scheduling loop).
func BenchmarkSplitGEMM(b *testing.B) {
	c := NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	ks, err := c.IntraOp(model.OPT30B().WithLayers(1), 4,
		model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context})
	if err != nil {
		b.Fatal(err)
	}
	var gemm KernelDesc
	for _, k := range ks {
		if k.CanSplit() && !k.Collective {
			gemm = k
			break
		}
	}
	var sp Splitter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Reset()
		if _, _, _, ok := sp.SplitPrefix(Remainder{Root: &gemm}, gemm.Name, 8, 3); !ok {
			b.Fatal("split failed")
		}
	}
}
