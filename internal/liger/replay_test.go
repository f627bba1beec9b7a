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
// unrecordable mark are shared by every batch of the shape, also one an
// assembler sharing the plan cache assembled, one of each per world.
// After Retarget the assembler sees neither, while an assembler still at
// the old degree keeps both. A detached batch runs the shape's plan and
// has neither.
func TestReplayRecordLivesOnThePlan(t *testing.T) {
	comp := parallel.NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	asm, err := NewAssembler(comp, model.Tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewAssembler(comp, model.Tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	shared := new(Plans)
	asm.Share(shared)
	peer.Share(shared)
	w := model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context}
	folded, other := World{Alive: 0b1111, Folded: true}, World{Alive: 0b1111, Timeout: time.Second}
	b, _ := asm.Assemble(w)
	if rec, marked := asm.Replay(b, folded); rec != nil || marked {
		t.Fatal("a fresh shape has a record")
	}
	rec := NewReplay(time.Millisecond, 3, gpusim.Work{Kernels: 4}, Stats{Rounds: 2})
	asm.SetReplay(b, folded, rec)
	if b2, _ := peer.Assemble(w); b2.plan != b.plan {
		t.Fatal("assemblers sharing a plan cache do not share the plan")
	} else if got, _ := peer.Replay(b2, folded); got != rec {
		t.Fatal("a batch of the recorded shape does not see the record")
	}
	if got, marked := asm.Replay(b, other); got != nil || marked {
		t.Fatal("another world sees the record")
	}
	asm.MarkUnrecordable(b, other)
	b2, _ := peer.Assemble(w)
	if got, marked := peer.Replay(b2, other); got != nil || !marked {
		t.Fatal("a batch of the marked shape does not see the mark")
	}
	if got, marked := peer.Replay(b2, folded); got != rec || marked {
		t.Fatal("marking one world changed another's record")
	}
	if held, marked := shared.Records(); held != 1 || marked != 1 {
		t.Fatalf("the cache holds %d records and %d marks, want 1 and 1", held, marked)
	}
	det := b2.Detached(nil)
	if got, marked := peer.Replay(det, folded); got != nil || marked || det.Workload != w || det.plan != b2.plan || det.Req != -1 {
		t.Fatalf("detached batch: record %v, marked %v, shape %v, own plan %v", got, marked, det.Workload, det.plan != b2.plan)
	}
	if again := b2.Detached(det); again != det || again.Remaining() != b2.Remaining() {
		t.Fatal("a reused detached batch")
	}
	if err := asm.Retarget(comp.ForWorldSize(2), 2); err != nil {
		t.Fatal(err)
	}
	if b3, _ := asm.Assemble(w); b3.plan == b.plan {
		t.Fatal("after Retarget the assembler reads the old degree's plan")
	} else if got, marked := asm.Replay(b3, folded); got != nil || marked {
		t.Fatal("the record survived Retarget")
	} else if got, marked := asm.Replay(b3, other); got != nil || marked {
		t.Fatal("the mark survived Retarget")
	}
	if b4, _ := peer.Assemble(w); b4.plan != b.plan {
		t.Fatal("a peer's Retarget dropped the plan")
	} else if got, _ := peer.Replay(b4, folded); got != rec {
		t.Fatal("a peer's Retarget dropped the record")
	}
	if got, marked := asm.Replay(NewBatch(9, w, nil), folded); got != nil || marked {
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
