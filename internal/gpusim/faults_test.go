package gpusim

import (
	"testing"
	"time"

	"liger/internal/simclock"
)

// Tests for the time-varying fault surface: mid-run speed and link
// changes applied at sim time, and collective timeout/abort semantics.

func TestMidRunSpeedChangeRetimesKernel(t *testing.T) {
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	var done simclock.Time
	launch(s, "k", Compute, 100*time.Microsecond, 0.5, 0.2, &done)
	// Delivery at 5µs; by 55µs the kernel has done 50µs of work. The
	// remaining 50µs at half speed takes 100µs more.
	eng.At(55*time.Microsecond, func(simclock.Time) { n.Device(0).SetSpeed(0.5) })
	eng.Run()
	if want := 155 * time.Microsecond; done != want {
		t.Fatalf("kernel finished at %v, want %v", done, want)
	}
}

func TestSpeedRestoreMidRun(t *testing.T) {
	eng, n := testNode(t, 1)
	n.Device(0).SetSpeed(0.5)
	s := n.NewStream(0)
	var done simclock.Time
	launch(s, "k", Compute, 100*time.Microsecond, 0.5, 0.2, &done)
	// Starts at 5µs at half speed; by 105µs it has done 50µs of work;
	// restored to full speed the remaining 50µs takes 50µs.
	eng.At(105*time.Microsecond, func(simclock.Time) { n.Device(0).SetSpeed(1) })
	eng.Run()
	if want := 155 * time.Microsecond; done != want {
		t.Fatalf("kernel finished at %v, want %v", done, want)
	}
}

func TestLinkFactorSlowsOnlyComm(t *testing.T) {
	eng, n := testNode(t, 1)
	n.Device(0).SetLinkFactor(0.5)
	var commDone, compDone simclock.Time
	launch(n.NewStream(0), "comm", Comm, 100*time.Microsecond, 0.05, 0.3, &commDone)
	eng.Run()
	eng2, n2 := testNode(t, 1)
	n2.Device(0).SetLinkFactor(0.5)
	launch(n2.NewStream(0), "comp", Compute, 100*time.Microsecond, 0.5, 0.3, &compDone)
	eng2.Run()
	if want := 205 * time.Microsecond; commDone != want {
		t.Fatalf("comm kernel on degraded link finished at %v, want %v", commDone, want)
	}
	if want := 105 * time.Microsecond; compDone != want {
		t.Fatalf("compute kernel finished at %v, want %v (link factor must not apply)", compDone, want)
	}
}

func TestLinkDegradeGatesCollective(t *testing.T) {
	eng, n := testNode(t, 4)
	n.Device(1).SetLinkFactor(0.25)
	coll := n.NewCollective(4)
	var done simclock.Time
	for d := 0; d < 4; d++ {
		n.NewStream(d).Launch(KernelSpec{
			Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
			ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll,
			OnDone: func(now simclock.Time, _ int) { done = now }})
	}
	eng.Run()
	// Lockstep at the slowest member: quarter rate, 400µs + 5µs delivery.
	if want := 405 * time.Microsecond; done != want {
		t.Fatalf("collective over degraded link finished at %v, want %v", done, want)
	}
}

func TestCollectiveTimeoutAbortsHungRendezvous(t *testing.T) {
	eng, n := testNode(t, 4)
	n.SetCollectiveTimeout(50 * time.Microsecond)
	coll := n.NewCollective(4)
	var abortedAt simclock.Time
	coll.OnAbort(func(now simclock.Time) { abortedAt = now })
	// Only 3 of 4 members launch: the rendezvous hangs until the
	// watchdog tears it down 50µs after the first member's arrival.
	var memberDone, followerDone simclock.Time
	var streams []*Stream
	for d := 0; d < 3; d++ {
		s := n.NewStream(d)
		streams = append(streams, s)
		s.Launch(KernelSpec{
			Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
			ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll,
			OnDone: func(now simclock.Time, _ int) { memberDone = now }})
	}
	// A kernel queued behind a member on the same stream must run once
	// the abort unblocks it — the "proper cleanup" property.
	s0 := n.Device(0)
	launch(streams[0], "after", Compute, 10*time.Microsecond, 0.5, 0.1, &followerDone)
	eng.Run()
	if !coll.Aborted() {
		t.Fatal("hung collective did not abort")
	}
	// First member admitted at 5µs; watchdog fires at 55µs.
	if want := 55 * time.Microsecond; abortedAt != want || memberDone != want {
		t.Fatalf("abort at %v, member done at %v, want both %v", abortedAt, memberDone, want)
	}
	if followerDone == 0 || followerDone < abortedAt {
		t.Fatalf("follower kernel finished at %v; streams did not advance after abort", followerDone)
	}
	if s0.RunningKernels() != 0 || s0.ComputeInUse() != 0 {
		t.Fatalf("abort leaked resources: %d running, %.2f SMs in use",
			s0.RunningKernels(), s0.ComputeInUse())
	}
}

func TestLateJoinerOfAbortedCollectiveCleansUp(t *testing.T) {
	eng, n := testNode(t, 2)
	coll := n.NewCollective(2)
	coll.SetTimeout(20 * time.Microsecond)
	var d0, d1 simclock.Time
	n.NewStream(0).Launch(KernelSpec{
		Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
		ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll,
		OnDone: func(now simclock.Time, _ int) { d0 = now }})
	// The peer launches long after the watchdog fired; joining the
	// aborted group must finish it immediately, not panic or hang.
	eng.At(200*time.Microsecond, func(simclock.Time) {
		n.NewStream(1).Launch(KernelSpec{
			Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
			ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll,
			OnDone: func(now simclock.Time, _ int) { d1 = now }})
	})
	eng.Run()
	if want := 25 * time.Microsecond; d0 != want {
		t.Fatalf("first member aborted at %v, want %v", d0, want)
	}
	if want := 205 * time.Microsecond; d1 != want {
		t.Fatalf("late joiner finished at %v, want %v (delivery + immediate cleanup)", d1, want)
	}
	if n.Device(1).RunningKernels() != 0 {
		t.Fatal("late joiner leaked a running kernel")
	}
}

func TestCollectiveTimeoutOnStalledProgress(t *testing.T) {
	eng, n := testNode(t, 2)
	n.SetCollectiveTimeout(300 * time.Microsecond)
	coll := n.NewCollective(2)
	var done simclock.Time
	for d := 0; d < 2; d++ {
		n.NewStream(d).Launch(KernelSpec{
			Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
			ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll,
			OnDone: func(now simclock.Time, _ int) { done = now }})
	}
	// The link dies mid-transfer; progress freezes, and the watchdog —
	// armed at the first join (5µs) — aborts at 305µs.
	eng.At(50*time.Microsecond, func(simclock.Time) { n.Device(0).SetLinkFactor(1e-6) })
	eng.Run()
	if !coll.Aborted() {
		t.Fatal("stalled collective did not abort")
	}
	if want := 305 * time.Microsecond; done != want {
		t.Fatalf("stalled collective aborted at %v, want %v", done, want)
	}
}

func TestCollectiveCompletesBeforeTimeout(t *testing.T) {
	eng, n := testNode(t, 2)
	n.SetCollectiveTimeout(time.Millisecond)
	coll := n.NewCollective(2)
	aborts := 0
	coll.OnAbort(func(simclock.Time) { aborts++ })
	var done simclock.Time
	for d := 0; d < 2; d++ {
		n.NewStream(d).Launch(KernelSpec{
			Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
			ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll,
			OnDone: func(now simclock.Time, _ int) { done = now }})
	}
	eng.Run()
	if coll.Aborted() || aborts != 0 {
		t.Fatal("healthy collective aborted")
	}
	if want := 105 * time.Microsecond; done != want {
		t.Fatalf("collective finished at %v, want %v", done, want)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending after run (watchdog not cancelled?)", eng.Pending())
	}
}

func TestLinkFactorValidation(t *testing.T) {
	_, n := testNode(t, 1)
	for _, bad := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("link factor %v accepted", bad)
				}
			}()
			n.Device(0).SetLinkFactor(bad)
		}()
	}
}

func TestHealthFactorProbe(t *testing.T) {
	_, n := testNode(t, 2)
	if h := n.MinHealth(); h != 1 {
		t.Fatalf("nominal MinHealth %v", h)
	}
	n.Device(0).SetSpeed(0.8)
	n.Device(1).SetLinkFactor(0.4)
	if h := n.Device(0).HealthFactor(); h != 0.8 {
		t.Fatalf("device 0 health %v, want 0.8", h)
	}
	if h := n.MinHealth(); h != 0.4 {
		t.Fatalf("MinHealth %v, want 0.4", h)
	}
}
