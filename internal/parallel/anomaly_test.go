package parallel

import (
	"testing"
	"time"

	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
)

// stageTotal sums the kernel durations of every stage span of an
// n-stage pipeline over p.
func stageTotal(p *Plan, n int) time.Duration {
	var total time.Duration
	for s := 0; s < n; s++ {
		lo, hi := p.StageSpan(s, n)
		for i := lo; i < hi; i++ {
			k, _ := p.At(i)
			total += k.Duration
		}
	}
	return total
}

// TestFig10jkStageAnomaly reproduces the §4.2 observation at the stage
// level: on the A100 node with batch 8, the Inter-Th stages (built from
// the intra-op approach's partitioned kernels) accumulate *less*
// duration than the Inter-Op stages (original kernels), while at batch
// 2 the ordering is the conventional one.
func TestFig10jkStageAnomaly(t *testing.T) {
	c := NewCompiler(hw.A100Node(), nccl.Config{})
	spec := model.OPT66B()
	run := func(batch int) (interOp, interTh time.Duration) {
		w := model.Workload{Batch: batch, SeqLen: 72, Phase: model.Context}
		op, err := c.IntraOpPlan(spec, 1, w)
		if err != nil {
			t.Fatal(err)
		}
		th, err := c.InterThPlan(spec, 4, w)
		if err != nil {
			t.Fatal(err)
		}
		return stageTotal(op, 4), stageTotal(th, 4)
	}
	op8, th8 := run(8)
	if th8 >= op8 {
		t.Errorf("batch 8: Inter-Th stages %v should undercut Inter-Op %v (the (j)(k) anomaly)", th8, op8)
	}
	op2, th2 := run(2)
	if th2 <= op2 {
		t.Errorf("batch 2: Inter-Th stages %v should exceed Inter-Op %v (conventional ordering)", th2, op2)
	}
}
