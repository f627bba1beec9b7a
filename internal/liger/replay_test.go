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

// TestReplayRecordLivesOnThePlan: a shape's replay record is shared by
// every batch of the shape and goes when Retarget drops the plans.
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
	if err := asm.Retarget(comp.ForWorldSize(2), 2); err != nil {
		t.Fatal(err)
	}
	if b3, _ := asm.Assemble(w); b3.Replay() != nil {
		t.Fatal("the record survived Retarget")
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
