package runtimes

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

// elasticRuntimes are the serving runtimes that reconfigure across a
// permanent device failure (Inter-Th shares InterOp's machinery).
var elasticRuntimes = []string{"Liger", "Intra-Op", "Inter-Op", "Inter-Th"}

// TestRuntimesSurvivePermanentDeviceFailure is the tentpole acceptance
// property: a device dies mid-trace and every runtime completes the
// remaining work on the survivors — every submission resolves exactly
// once, nothing hangs, the failed epoch is reported failed, and
// post-recovery submissions succeed on the 3-GPU world.
func TestRuntimesSurvivePermanentDeviceFailure(t *testing.T) {
	for _, name := range elasticRuntimes {
		t.Run(name, func(t *testing.T) {
			eng, node, comp := rig(t)
			rt := buildRuntime(t, name, node, comp, model.Tiny())
			el, ok := rt.(Elastic)
			if !ok {
				t.Fatalf("%s does not implement Elastic", name)
			}
			byID := map[int]Completion{}
			rt.SetOnDone(func(c Completion) {
				if _, dup := byID[c.ID]; dup {
					t.Errorf("batch %d completed twice", c.ID)
				}
				byID[c.ID] = c
			})
			const batches = 12
			for i := 0; i < batches; i++ {
				at := simclock.Time(i) * simclock.Time(150*time.Microsecond)
				eng.At(at, func(simclock.Time) {
					if err := rt.Submit(model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context}); err != nil {
						t.Error(err)
					}
				})
			}
			// The failure is armed by hand rather than through
			// faults.Inject, so keep the node unfolded as Inject does: a
			// folded node cannot lose a device mid-run.
			node.KeepUnfolded()
			eng.At(simclock.Time(400*time.Microsecond), func(simclock.Time) { node.FailDevice(1) })
			eng.Run()
			if len(byID) != batches {
				t.Fatalf("%d of %d submissions resolved — work lost or hung", len(byID), batches)
			}
			var failed, okAfter int
			for id := 0; id < batches; id++ {
				c, found := byID[id]
				if !found {
					t.Fatalf("batch %d never completed", id)
				}
				if c.Failed {
					failed++
				} else if c.Done > simclock.Time(400*time.Microsecond) {
					okAfter++
				}
			}
			if failed == 0 {
				t.Fatal("no batch failed at the failure instant — the epoch was not discarded")
			}
			if okAfter == 0 {
				t.Fatal("no batch succeeded after recovery — the runtime never resumed")
			}
			if el.Reconfiguring() {
				t.Fatal("still reconfiguring at end of run")
			}
			fo, down := el.FailoverStats()
			if fo != 1 {
				t.Fatalf("FailoverStats failovers = %d, want 1", fo)
			}
			if down <= 0 {
				t.Fatalf("FailoverStats downtime = %v, want positive (time-to-recover)", down)
			}
		})
	}
}

// TestFailoverReconfiguredCallbackFires checks the serve-facing
// contract: Reconfiguring() is true between the failure and the resume
// callback, and the callback fires exactly once per failover at a time
// after the failure.
func TestFailoverReconfiguredCallbackFires(t *testing.T) {
	for _, name := range elasticRuntimes {
		t.Run(name, func(t *testing.T) {
			eng, node, comp := rig(t)
			rt := buildRuntime(t, name, node, comp, model.Tiny())
			el := rt.(Elastic)
			rt.SetOnDone(func(Completion) {})
			var resumedAt []simclock.Time
			el.OnReconfigured(func(now simclock.Time) { resumedAt = append(resumedAt, now) })
			failAt := simclock.Time(200 * time.Microsecond)
			eng.At(0, func(simclock.Time) {
				if err := rt.Submit(model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context}); err != nil {
					t.Error(err)
				}
			})
			node.KeepUnfolded() // the failure is armed by hand, not by faults.Inject
			eng.At(failAt, func(simclock.Time) {
				node.FailDevice(2)
				if !el.Reconfiguring() {
					t.Error("Reconfiguring() false at the failure instant")
				}
			})
			eng.Run()
			if len(resumedAt) != 1 {
				t.Fatalf("OnReconfigured fired %d times, want 1", len(resumedAt))
			}
			if resumedAt[0] <= failAt {
				t.Fatalf("resumed at %v, not after the failure at %v", resumedAt[0], failAt)
			}
		})
	}
}

// TestFailoverImpossibleWhenSurvivorsCannotHostModel drives the OOM
// path: OPT-30B shards at 15 GB/device over four V100-16GB, so three
// survivors would need 20 GB each — the re-shard must fail and every
// subsequent submission must fail fast instead of hanging.
func TestFailoverImpossibleWhenSurvivorsCannotHostModel(t *testing.T) {
	for _, name := range elasticRuntimes {
		t.Run(name, func(t *testing.T) {
			eng := simclock.New()
			node, err := gpusim.New(eng, hw.V100Node())
			if err != nil {
				t.Fatal(err)
			}
			comp := parallel.NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
			rt := buildRuntime(t, name, node, comp, model.OPT30B())
			byID := map[int]Completion{}
			rt.SetOnDone(func(c Completion) {
				if _, dup := byID[c.ID]; dup {
					t.Errorf("batch %d completed twice", c.ID)
				}
				byID[c.ID] = c
			})
			eng.At(0, func(simclock.Time) {
				if err := rt.Submit(model.Workload{Batch: 1, SeqLen: 16, Phase: model.Context}); err != nil {
					t.Error(err)
				}
			})
			node.KeepUnfolded() // the failure is armed by hand, not by faults.Inject
			eng.At(simclock.Time(time.Millisecond), func(simclock.Time) { node.FailDevice(0) })
			// Submitted long after the failed re-shard: must fail fast.
			eng.At(simclock.Time(10*time.Second), func(simclock.Time) {
				if err := rt.Submit(model.Workload{Batch: 1, SeqLen: 16, Phase: model.Context}); err != nil {
					t.Error(err)
				}
			})
			eng.Run()
			if len(byID) != 2 {
				t.Fatalf("%d of 2 submissions resolved", len(byID))
			}
			for id, c := range byID {
				if !c.Failed {
					t.Errorf("batch %d succeeded on a world that cannot host the model", id)
				}
			}
			if c := byID[1]; time.Duration(c.Done) < 10*time.Second {
				t.Errorf("late submission completed at %v, before its own submit time", time.Duration(c.Done))
			} else if time.Duration(c.Done) > 10*time.Second+time.Millisecond {
				t.Errorf("late submission took %v to fail — not failing fast", time.Duration(c.Done)-10*time.Second)
			}
		})
	}
}
