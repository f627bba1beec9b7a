package gpusim

import (
	"reflect"
	"testing"
	"time"

	"liger/internal/simclock"
)

// Tests for the kernel-instance pool: the steady-state launch path
// allocates nothing, and no instance is reused while anything still
// refers to it — in particular on the teardown paths (device failure,
// collective abort, late join to an aborted group) that retire kernels
// outside the normal completion.

func TestSteadyStateLaunchAllocatesNothing(t *testing.T) {
	const perRun, runs, warm = 32, 20, 50
	eng, n := testNode(t, 2)
	s0, s1 := n.NewStream(0), n.NewStream(1)
	done := 0
	onDone := func(simclock.Time) { done++ }
	local := func() {
		for i := 0; i < perRun; i++ {
			for _, s := range []*Stream{s0, s1} {
				s.Launch(KernelSpec{Name: "gemm", Class: Compute, Duration: time.Microsecond,
					ComputeDemand: 0.4, MemBWDemand: 0.7, Req: -1, OnDone: onDone})
			}
		}
		eng.Run()
	}
	// The collectives are the runtime's objects, built before the
	// measured loop; launching and retiring their members is the kernel
	// path under test.
	colls := make([]*Collective, (warm+runs+1)*perRun)
	for i := range colls {
		colls[i] = n.NewCollective(2)
	}
	next := 0
	collective := func() {
		for i := 0; i < perRun; i++ {
			c := colls[next]
			next++
			for _, s := range []*Stream{s0, s1} {
				s.Launch(KernelSpec{Name: "ar", Class: Comm, Duration: time.Microsecond,
					ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: c, Req: -1, OnDone: onDone})
			}
		}
		eng.Run()
	}
	// Warm the pools, the stream queues and the event queue's buckets.
	for i := 0; i < warm; i++ {
		local()
		collective()
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{{"local", local}, {"collective", collective}} {
		if a := testing.AllocsPerRun(runs, tc.run); a != 0 {
			t.Errorf("%s: %v allocations per run of %d kernels, want 0", tc.name, a, 2*perRun)
		}
	}
	if want := 2 * 2 * perRun * (warm + runs + 1); done != want {
		t.Fatalf("%d kernels completed, want %d", done, want)
	}
}

// poolRun is what one pool scenario observed.
type poolRun struct {
	spans            []KernelSpan
	deps             []KernelDep
	launched, done   int
	distinct, pooled int
}

// runPoolScenario launches rounds onto every device — a local kernel,
// an event handoff to the device's second stream, one member of a
// node-wide collective there, and another local kernel — every 15µs,
// with perturb injecting the faults. With pool set, a hook fails the
// test whenever an instance is pooled while a stream queue, a running
// set or an unfinished collective still refers to it, or while it is
// already pooled; without it, retired instances are dropped instead,
// which is the unpooled oracle.
func runPoolScenario(t *testing.T, pool bool, gpus, rounds int, perturb func(*simclock.Engine, *Node)) poolRun {
	t.Helper()
	eng, n, rec := depNode(t, gpus)
	var r poolRun
	seen := map[*kernelInstance]bool{}
	n.recycleHook = func(k *kernelInstance) bool {
		if !pool {
			return false
		}
		for _, d := range n.devices {
			for _, x := range d.running {
				if x == k {
					t.Errorf("kernel %d pooled while resident on device %d", k.id, d.id)
				}
			}
			for _, s := range d.streams {
				for _, cmd := range s.queue[s.qhead:] {
					if cmd.kernel == k {
						t.Errorf("kernel %d pooled while queued on stream %d", k.id, s.id)
					}
				}
			}
		}
		if c := k.spec.Coll; c != nil && !c.done {
			t.Errorf("kernel %d pooled while collective %d is unfinished", k.id, c.id)
		}
		for _, f := range n.kernFree {
			if f == k {
				t.Errorf("kernel %d pooled twice", k.id)
			}
		}
		seen[k] = true
		return true
	}
	onDone := func(simclock.Time) { r.done++ }
	compute := make([]*Stream, gpus)
	comm := make([]*Stream, gpus)
	for d := range compute {
		compute[d], comm[d] = n.NewStreamOnConnection(d, 0), n.NewStreamOnConnection(d, 1)
	}
	for i := 0; i < rounds; i++ {
		eng.At(simclock.Time(i)*15*time.Microsecond, func(simclock.Time) {
			c := n.NewCollective(gpus)
			for d := range compute {
				compute[d].Launch(KernelSpec{Name: "gemm", Class: Compute, Duration: 8 * time.Microsecond,
					ComputeDemand: 0.5, MemBWDemand: 0.6, Batch: i, Req: -1, OnDone: onDone})
				comm[d].Wait(compute[d].Record())
				comm[d].Launch(KernelSpec{Name: "ar", Class: Comm, Duration: 6 * time.Microsecond,
					ComputeDemand: 0.1, MemBWDemand: 0.3, Coll: c, Batch: i, Req: -1, OnDone: onDone})
				compute[d].Launch(KernelSpec{Name: "ln", Class: Compute, Duration: 4 * time.Microsecond,
					ComputeDemand: 0.3, MemBWDemand: 0.5, Batch: i, Req: -1, OnDone: onDone})
				r.launched += 3
			}
		})
	}
	perturb(eng, n)
	eng.Run()
	r.spans, r.deps = rec.spans, rec.deps
	r.distinct, r.pooled = len(seen), len(n.kernFree)
	return r
}

// checkPoolScenario runs a scenario pooled and unpooled and requires
// identical spans and deps, one span per launch, and every instance back
// in the pool at run end after being reused.
func checkPoolScenario(t *testing.T, gpus, rounds int, perturb func(*simclock.Engine, *Node)) []KernelSpan {
	t.Helper()
	pooled := runPoolScenario(t, true, gpus, rounds, perturb)
	oracle := runPoolScenario(t, false, gpus, rounds, perturb)
	if pooled.done != pooled.launched {
		t.Fatalf("%d of %d launched kernels completed", pooled.done, pooled.launched)
	}
	ids := map[int]int{}
	for _, sp := range pooled.spans {
		ids[sp.ID]++
	}
	for id := 0; id < pooled.launched; id++ {
		if ids[id] != 1 {
			t.Fatalf("kernel %d has %d spans, want 1", id, ids[id])
		}
	}
	if !reflect.DeepEqual(pooled.spans, oracle.spans) {
		t.Fatal("pooled run's spans differ from the unpooled run's")
	}
	if !reflect.DeepEqual(pooled.deps, oracle.deps) {
		t.Fatal("pooled run's deps differ from the unpooled run's")
	}
	if pooled.pooled != pooled.distinct {
		t.Fatalf("%d instances back in the pool at run end, %d ever pooled: one is still live or pooled twice", pooled.pooled, pooled.distinct)
	}
	if pooled.distinct*4 > pooled.launched {
		t.Fatalf("%d instances for %d launches: the pool is not being reused", pooled.distinct, pooled.launched)
	}
	return pooled.spans
}

func TestKernelPoolFailDevice(t *testing.T) {
	// Device 1 dies mid-run: its resident kernels truncate, its
	// collectives abort (releasing the survivors' members), and the
	// rounds launched onto it afterwards cancel at delivery.
	spans := checkPoolScenario(t, 4, 40, func(eng *simclock.Engine, n *Node) {
		eng.At(203*time.Microsecond, func(simclock.Time) { n.FailDevice(1) })
	})
	var failed, aborted int
	for _, sp := range spans {
		switch sp.Cancelled {
		case CancelDeviceFail:
			failed++
		case CancelCollectiveAbort:
			aborted++
		}
	}
	if failed == 0 || aborted == 0 {
		t.Fatalf("%d device-fail and %d collective-abort spans; the scenario misses a teardown path", failed, aborted)
	}
}

func TestKernelPoolCollectiveAbort(t *testing.T) {
	// Device 1 crawls for a while, so its collective members arrive long
	// after their peers: the watchdog aborts the groups, and the late
	// members join aborted groups.
	spans := checkPoolScenario(t, 3, 40, func(eng *simclock.Engine, n *Node) {
		n.SetCollectiveTimeout(30 * time.Microsecond)
		eng.At(100*time.Microsecond, func(simclock.Time) { n.Device(1).SetSpeed(0.1) })
		eng.At(300*time.Microsecond, func(simclock.Time) { n.Device(1).SetSpeed(1) })
	})
	var aborted, late int
	for _, sp := range spans {
		if sp.Cancelled == CancelCollectiveAbort {
			aborted++
			if sp.Start == sp.End {
				late++
			}
		}
	}
	if aborted == 0 || late == 0 {
		t.Fatalf("%d aborted members, %d late joins; the scenario misses a teardown path", aborted, late)
	}
}
