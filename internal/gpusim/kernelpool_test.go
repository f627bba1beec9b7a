package gpusim

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"liger/internal/simclock"
)

// Tests for the kernel-instance, event and collective pools: the
// steady-state launch path allocates nothing, and no object is reused
// while anything still refers to it — in particular on the teardown
// paths (device failure, collective abort, late join to an aborted
// group) that retire kernels outside the normal completion.

func TestSteadyStateLaunchAllocatesNothing(t *testing.T) {
	// The warm-up fills the pools and also grows the engine's queue
	// slices to their steady-state capacity, so that no measured run
	// pays for a growth.
	const perRun, runs, warm = 32, 20, 1500
	eng, n := testNode(t, 2)
	s0, s1 := n.NewStream(0), n.NewStream(1)
	done := 0
	onDone := func(_ simclock.Time, copies int) { done += copies }
	gemm := func(s *Stream) {
		s.Launch(KernelSpec{Name: "gemm", Class: Compute, Duration: time.Microsecond,
			ComputeDemand: 0.4, MemBWDemand: 0.7, Req: -1, OnDone: onDone})
	}
	local := func() {
		for i := 0; i < perRun; i++ {
			gemm(s0)
			gemm(s1)
		}
		eng.Run()
	}
	collective := func() {
		for i := 0; i < perRun; i++ {
			c := n.NewCollective(2)
			for _, s := range []*Stream{s0, s1} {
				s.Launch(KernelSpec{Name: "ar", Class: Comm, Duration: time.Microsecond,
					ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: c, Req: -1, OnDone: onDone})
			}
		}
		eng.Run()
	}
	// Each kernel on s1 waits for its peer on s0 through an event the
	// launcher releases as soon as the wait holds it.
	handoff := func() {
		for i := 0; i < perRun; i++ {
			gemm(s0)
			ev := s0.Record()
			s1.Wait(ev)
			ev.Release()
			gemm(s1)
		}
		eng.Run()
	}
	cases := []struct {
		name string
		run  func()
	}{{"local", local}, {"collective", collective}, {"event", handoff}}
	for i := 0; i < warm; i++ {
		for _, tc := range cases {
			tc.run()
		}
	}
	for _, tc := range cases {
		if a := testing.AllocsPerRun(runs, tc.run); a != 0 {
			t.Errorf("%s: %v allocations per run of %d kernels, want 0", tc.name, a, 2*perRun)
		}
	}
	if want := len(cases) * 2 * perRun * (warm + runs + 1); done != want {
		t.Fatalf("%d kernels completed, want %d", done, want)
	}
}

// A wait binds to the recording it was issued on: released, fired,
// recycled and recorded again before the wait reaches its stream's head,
// the event must not hold the wait back for the new recording.
func TestEventPoolWaitKeepsGeneration(t *testing.T) {
	eng, n := testNode(t, 1)
	prod, cons := n.NewStream(0), n.NewStream(0)
	launch(prod, "short", Compute, 10*time.Microsecond, 0.3, 0, nil)
	ev := prod.Record()
	// The consumer is busy long past the event, so its wait reaches the
	// head only after the event fired and was recorded again.
	var busy, gated simclock.Time
	launch(cons, "busy", Compute, 100*time.Microsecond, 0.3, 0, &busy)
	cons.Wait(ev)
	ev.Release()
	launch(cons, "gated", Compute, 10*time.Microsecond, 0.3, 0, &gated)
	var again *Event
	eng.At(50*time.Microsecond, func(simclock.Time) {
		launch(prod, "long", Compute, 500*time.Microsecond, 0.3, 0, nil)
		again = prod.Record()
	})
	eng.Run()
	if again != ev {
		t.Fatal("the released, fired event was not recycled for the next recording")
	}
	if !again.Fired() || gated <= busy || gated >= again.FiredAt() {
		t.Fatalf("gated kernel finished at %v (busy until %v); the new recording fired at %v: the wait followed the recycled event",
			gated, busy, again.FiredAt())
	}
}

// A callback that runs inside a stream's advance and launches onto that
// same stream moves the stream's value queue under the advance: the
// launches first slide the outstanding commands down, then grow the
// slice. The two callbacks that run there are an Observe callback on an
// event recorded on the stream and the OnDone of a kernel cancelled on a
// failed device. Every kernel must still complete once, in launch order,
// and no retired kernel may stay reachable from any queue slot.
func TestIssueDuringAdvanceKeepsQueue(t *testing.T) {
	// pre kernels, the trigger and a tail fill a 16-slot queue; the
	// trigger leaves it with only the tail outstanding.
	const pre, more = 14, 40
	for _, tc := range []struct {
		name string
		fail bool
	}{{"observe", false}, {"cancel", true}} {
		t.Run(tc.name, func(t *testing.T) {
			eng, n := testNode(t, 1)
			s := n.NewStream(0)
			if tc.fail {
				n.FailDevice(0)
			}
			recycled := 0
			n.kernelHook = func(k *kernelInstance) bool {
				recycled++
				for _, cmd := range s.queue[:cap(s.queue)] {
					if cmd.kernel == k {
						t.Errorf("kernel %d pooled while a queue slot holds it", k.id)
					}
				}
				return true
			}
			var order []int
			launched := 0
			gemm := func(onDone func()) {
				i := launched
				launched++
				s.Launch(KernelSpec{Name: "gemm", Class: Compute, Duration: time.Microsecond,
					ComputeDemand: 0.3, Req: -1, OnDone: func(simclock.Time, int) {
						order = append(order, i)
						if onDone != nil {
							onDone()
						}
					}})
			}
			var slid, grew bool
			launchMore := func() {
				if s.qhead == 0 {
					t.Fatal("the callback runs with no retired prefix to slide over")
				}
				before := cap(s.queue)
				for range more {
					gemm(nil)
				}
				// Nothing pops while the callback launches, so qhead returns
				// to 0 only by a slide.
				slid, grew = s.qhead == 0, cap(s.queue) > before
			}
			for range pre {
				gemm(nil)
			}
			if tc.fail {
				gemm(launchMore)
			} else {
				ev := s.Record()
				ev.Observe(func(simclock.Time) { launchMore() })
				ev.Release()
			}
			gemm(nil)
			eng.Run()
			if !slid || !grew {
				t.Fatalf("the launches inside advance slid the queue: %v, grew it: %v; want both", slid, grew)
			}
			want := pre + 1 + more // and the trigger, when it is a kernel
			if tc.fail {
				want++
			}
			if len(order) != launched || launched != want || recycled != want {
				t.Fatalf("%d completions and %d recycles of %d launches, want %d", len(order), recycled, launched, want)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("completion %d is kernel %d: not in launch order", i, got)
				}
			}
			if q := s.QueueLen(); q != 0 {
				t.Fatalf("stream holds %d commands after the run, want 0", q)
			}
		})
	}
}

// poolRun is what one pool scenario observed.
type poolRun struct {
	spans                  []KernelSpan
	deps                   []KernelDep
	launched, done         int
	kernels, events, colls poolCount
}

// poolCount counts one pool's objects: distinct ever pooled, back in the
// pool at run end, and the number of times any was pooled.
type poolCount struct{ distinct, pooled, recycles int }

// runPoolScenario launches rounds onto every device — a local kernel,
// an event handoff to the device's second stream, one member of a
// node-wide collective there, and another local kernel — every 15µs,
// with perturb injecting the faults. The handoff event is released as
// soon as the wait holds it. With pool set, hooks fail the test whenever
// a kernel instance, event or collective is pooled while anything still
// refers to it, or while it is already pooled; without it, retired
// objects are dropped instead, which is the unpooled oracle.
func runPoolScenario(t *testing.T, pool bool, gpus, rounds int, perturb func(*simclock.Engine, *Node)) poolRun {
	t.Helper()
	eng, n, rec := depNode(t, gpus)
	var r poolRun
	seenK := map[*kernelInstance]bool{}
	seenE := map[*Event]bool{}
	seenC := map[*Collective]bool{}
	// reaches reports whether a running or queued kernel satisfies f.
	reaches := func(f func(k *kernelInstance) bool) (string, bool) {
		for _, d := range n.devices {
			for _, x := range d.running {
				if f(x) {
					return "resident", true
				}
			}
			for _, s := range d.streams {
				for _, cmd := range s.queue[s.qhead:] {
					if cmd.kernel != nil && f(cmd.kernel) {
						return "queued", true
					}
				}
			}
		}
		return "", false
	}
	n.kernelHook = func(k *kernelInstance) bool {
		if !pool {
			return false
		}
		if where, ok := reaches(func(x *kernelInstance) bool { return x == k }); ok {
			t.Errorf("kernel %d pooled while %s", k.id, where)
		}
		if c := k.spec.Coll; c != nil && !c.done {
			t.Errorf("kernel %d pooled while collective %d is unfinished", k.id, c.id)
		}
		if slices.Contains(n.kernFree, k) {
			t.Errorf("kernel %d pooled twice", k.id)
		}
		seenK[k] = true
		r.kernels.recycles++
		return true
	}
	n.eventHook = func(ev *Event) bool {
		if !pool {
			return false
		}
		if !ev.fired || !ev.released || ev.firing || len(ev.subs) != 0 {
			t.Errorf("event pooled while live: fired %v, released %v, firing %v, %d subscribers",
				ev.fired, ev.released, ev.firing, len(ev.subs))
		}
		if slices.Contains(n.evFree, ev) {
			t.Error("event pooled twice")
		}
		seenE[ev] = true
		r.events.recycles++
		return true
	}
	n.collHook = func(c *Collective) bool {
		if !pool {
			return false
		}
		if !c.started || !c.done || c.aborted {
			t.Errorf("collective %d pooled unfinished or aborted: started %v, done %v, aborted %v", c.id, c.started, c.done, c.aborted)
		}
		if where, ok := reaches(func(x *kernelInstance) bool { return x.spec.Coll == c }); ok {
			t.Errorf("collective %d pooled while a member is %s", c.id, where)
		}
		if slices.Contains(n.collFree, c) {
			t.Errorf("collective %d pooled twice", c.id)
		}
		seenC[c] = true
		r.colls.recycles++
		return true
	}
	onDone := func(_ simclock.Time, copies int) { r.done += copies }
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
				ev := compute[d].Record()
				comm[d].Wait(ev)
				ev.Release()
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
	r.kernels.distinct, r.kernels.pooled = len(seenK), len(n.kernFree)
	r.events.distinct, r.events.pooled = len(seenE), len(n.evFree)
	r.colls.distinct, r.colls.pooled = len(seenC), len(n.collFree)
	return r
}

// checkPoolScenario runs a scenario pooled and unpooled and requires
// identical spans and deps, one span per launch, every kernel instance
// and event back in the pool at run end, and every pool reused.
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
	for _, p := range []struct {
		name string
		poolCount
		// Aborted collectives are never pooled, so a reused group may end
		// the run outside the pool.
		mayLeave bool
	}{
		{"kernel instances", pooled.kernels, false},
		{"events", pooled.events, false},
		{"collectives", pooled.colls, true},
	} {
		if !p.mayLeave && p.pooled != p.distinct {
			t.Fatalf("%d %s back in the pool at run end, %d ever pooled: one is still live or pooled twice", p.pooled, p.name, p.distinct)
		}
		if p.distinct == 0 || p.recycles <= p.distinct {
			t.Fatalf("%d %s pooled %d times: the pool is not being reused", p.distinct, p.name, p.recycles)
		}
	}
	if pooled.kernels.distinct*4 > pooled.launched {
		t.Fatalf("%d kernel instances for %d launches: the pool is not being reused", pooled.kernels.distinct, pooled.launched)
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
