package liger

import (
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

// TestReplayRecordLivesOnThePlan: a shape's replay record and its
// nonlinear mark are shared by every batch of the shape and go when
// Retarget drops the plans. A cut batch runs the shape's plan with fewer
// layers and has neither.
func TestReplayRecordLivesOnThePlan(t *testing.T) {
	comp := parallel.NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	asm, err := NewAssembler(comp, model.Tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	w := model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context}
	b, _ := asm.Assemble(w)
	if b.Replay() != nil {
		t.Fatal("a fresh shape has a record")
	}
	rec := NewReplay(time.Millisecond, 0, 3, gpusim.Work{Kernels: 4}, Stats{Rounds: 2})
	b.SetReplay(rec)
	if b2, _ := asm.Assemble(w); b2.Replay() != rec {
		t.Fatal("a batch of the recorded shape does not see the record")
	}
	b.MarkNonlinear()
	b2, _ := asm.Assemble(w)
	if !b2.Nonlinear() {
		t.Fatal("a batch of the marked shape does not see the mark")
	}
	cut := b2.Cut(2, nil)
	if cut.Replay() != nil || cut.Nonlinear() || cut.Workload != w || cut.Layers() != 2 {
		t.Fatalf("cut batch: record %v, marked %v, shape %v, %d layers", cut.Replay(), cut.Nonlinear(), cut.Workload, cut.Layers())
	}
	kernels := func(layers int) int { return b2.Cut(layers, nil).Remaining() }
	if kernels(4) != b2.Remaining() || kernels(2) == kernels(1) || kernels(3)-kernels(2) != kernels(2)-kernels(1) {
		t.Fatalf("cut batches of %d, %d, %d and %d kernels from a plan of %d", kernels(1), kernels(2), kernels(3), kernels(4), b2.Remaining())
	}
	if again := b2.Cut(1, cut); again != cut || again.Layers() != 1 || b2.Layers() != model.Tiny().Layers {
		t.Fatal("a reused cut batch")
	}
	if err := asm.Retarget(comp.ForWorldSize(2), 2); err != nil {
		t.Fatal(err)
	}
	if b3, _ := asm.Assemble(w); b3.Replay() != nil || b3.Nonlinear() {
		t.Fatal("the record or the mark survived Retarget")
	}
	if NewBatch(9, w, nil).Replay() != nil {
		t.Fatal("a hand-built batch has a record")
	}
}

// TestSettledNeedsAWarmIdleScheduler: a scheduler is settled only once a
// round has set every round device's end events, while nothing is in
// flight, and never with a journal on.
func TestSettledNeedsAWarmIdleScheduler(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	if s.Settled() {
		t.Fatal("a cold scheduler is settled")
	}
	eng.At(0, func(simclock.Time) {
		s.Submit(syntheticBatch(0, 2, 2, 50*time.Microsecond, 20*time.Microsecond))
		if s.Settled() {
			t.Error("a scheduler running a batch is settled")
		}
	})
	eng.Run()
	if !s.Settled() {
		t.Fatal("a warm idle scheduler is not settled")
	}
	s.EnableJournal(8)
	if s.Settled() {
		t.Fatal("a journaling scheduler is settled")
	}
}
