package liger

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

// holder names the scheduler structure still holding b, or "".
func holder(s *Scheduler, b *Batch) string {
	switch {
	case slices.Contains(s.processing, b):
		return "the processing list"
	case slices.Contains(s.waiting, b):
		return "the waiting queue"
	}
	if _, ok := s.live[b]; ok {
		return "the live registry"
	}
	if _, ok := s.drainSet[b]; ok {
		return "the drain set"
	}
	return ""
}

// lifecycleRun serves a stream of assembled batches, some of them
// resubmitting a follow-up from their completion callback, and returns
// every completion in order. With release set the callback hands each
// batch back to the assembler, as runtimes.Liger does, and reused counts
// the batches Assemble returned a second time. fault injects the
// failure under test.
func lifecycleRun(t *testing.T, sync SyncMode, release bool, fault func(eng *simclock.Engine, node *gpusim.Node, s *Scheduler)) (done []string, reused int) {
	t.Helper()
	eng := simclock.New()
	node, err := gpusim.New(eng, hw.V100Node())
	if err != nil {
		t.Fatal(err)
	}
	comp := parallel.NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	a, err := NewAssembler(comp, model.OPT30B().WithLayers(4), node.NumDevices())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.Sync = sync
	s, err := NewScheduler(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*Batch]bool{}
	submit := func(seq int) {
		b, err := a.Assemble(model.Workload{Batch: 1 + seq%3, SeqLen: 32 + 16*(seq%4), Phase: model.Context})
		if err != nil {
			t.Fatal(err)
		}
		if seen[b] {
			reused++
			if where := holder(s, b); where != "" {
				t.Fatalf("batch %d reused while %s holds it", b.ID, where)
			}
		}
		seen[b] = true
		s.Submit(b)
	}
	followUps := 0
	s.SetOnBatchDone(func(b *Batch, now simclock.Time) {
		if where := holder(s, b); where != "" {
			t.Errorf("batch %d completed while %s holds it", b.ID, where)
		}
		done = append(done, fmt.Sprintf("batch %d failed=%v submitted=%v done=%v", b.ID, b.Failed, b.SubmittedAt, now))
		if b.ID%3 == 0 && followUps < 8 && !s.quiescing {
			followUps++
			submit(100 + followUps)
		}
		if release {
			a.Release(b)
		}
	})
	for i := range 24 {
		eng.At(simclock.Time(i)*simclock.Time(150*time.Microsecond), func(simclock.Time) { submit(i) })
	}
	fault(eng, node, s)
	eng.Run()
	if len(done) != 24+followUps {
		t.Fatalf("%d of %d batches completed", len(done), 24+followUps)
	}
	return done, reused
}

// A released batch is reused only once the scheduler has dropped it —
// after a normal completion, a failover quiesce, a FailAll and a
// collective abort alike — and reusing it changes no completion. Under
// CPU-GPU synchronization batches complete while the next round is
// still pending, before any refill could drop them.
func TestReleasedBatchIsNotReferenced(t *testing.T) {
	at := simclock.Time(1200 * time.Microsecond)
	none := func(*simclock.Engine, *gpusim.Node, *Scheduler) {}
	cases := []struct {
		name  string
		sync  SyncMode
		fails bool
		fault func(eng *simclock.Engine, node *gpusim.Node, s *Scheduler)
	}{
		{"completion", Hybrid, false, none},
		{"completion under CPU-GPU sync", CPUGPU, false, none},
		{"quiesce", Hybrid, true, func(eng *simclock.Engine, _ *gpusim.Node, s *Scheduler) {
			eng.At(at, func(now simclock.Time) {
				s.Quiesce(now, func(simclock.Time) {
					eng.After(100*time.Microsecond, s.Resume)
				})
			})
		}},
		{"fail-all", Hybrid, true, func(eng *simclock.Engine, _ *gpusim.Node, s *Scheduler) {
			eng.At(at, s.FailAll)
		}},
		{"collective abort", Hybrid, true, func(eng *simclock.Engine, node *gpusim.Node, _ *Scheduler) {
			// A hung link on one device until at: the watchdog aborts the
			// collectives it stalls.
			node.SetCollectiveTimeout(300 * time.Microsecond)
			node.Device(2).SetLinkFactor(0.001)
			eng.At(at, func(simclock.Time) { node.Device(2).SetLinkFactor(1) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := lifecycleRun(t, tc.sync, false, tc.fault)
			got, reused := lifecycleRun(t, tc.sync, true, tc.fault)
			if reused == 0 {
				t.Fatal("no batch was reused")
			}
			if !slices.Equal(got, want) {
				t.Fatalf("reusing batches changed the completions:\n%v\nwant\n%v", got, want)
			}
			failed := slices.ContainsFunc(got, func(c string) bool { return strings.Contains(c, "failed=true") })
			if failed != tc.fails {
				t.Fatalf("a batch failed: %v, want %v", failed, tc.fails)
			}
		})
	}
}
