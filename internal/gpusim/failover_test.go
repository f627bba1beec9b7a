package gpusim

import (
	"reflect"
	"testing"
	"time"

	"liger/internal/simclock"
)

// Tests for permanent device removal: in-flight kernels cancel, queued
// kernels drain, collective memberships abort, observers fire, and the
// dead device stops counting toward health and memory operations.

func TestFailDeviceCancelsInFlightKernel(t *testing.T) {
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	var done simclock.Time
	launch(s, "k", Compute, 100*time.Microsecond, 0.5, 0.2, &done)
	eng.At(40*time.Microsecond, func(simclock.Time) { n.FailDevice(0) })
	eng.Run()
	// The kernel would finish at 105µs; death cancels it at 40µs.
	if want := simclock.Time(40 * time.Microsecond); done != want {
		t.Fatalf("cancelled kernel completed at %v, want %v", done, want)
	}
}

func TestFailDeviceDrainsQueuedKernels(t *testing.T) {
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	var first, second simclock.Time
	launch(s, "a", Compute, 100*time.Microsecond, 0.9, 0.2, &first)
	launch(s, "b", Compute, 100*time.Microsecond, 0.9, 0.2, &second)
	eng.At(40*time.Microsecond, func(simclock.Time) { n.FailDevice(0) })
	eng.Run()
	// Both the running kernel and the one queued behind it complete (as
	// cancelled) at the failure instant — nothing is left hanging.
	if want := simclock.Time(40 * time.Microsecond); first != want || second != want {
		t.Fatalf("drain completed at %v/%v, want both %v", first, second, want)
	}
}

func TestFailDeviceAbortsCollectiveMembership(t *testing.T) {
	eng, n := testNode(t, 4)
	coll := n.NewCollective(4)
	var aborted bool
	coll.OnAbort(func(simclock.Time) { aborted = true })
	finished := 0
	for d := 0; d < 4; d++ {
		n.NewStream(d).Launch(KernelSpec{
			Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
			ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll,
			OnDone: func(_ simclock.Time, copies int) { finished += copies }})
	}
	eng.At(30*time.Microsecond, func(simclock.Time) { n.FailDevice(2) })
	eng.Run()
	if !aborted {
		t.Fatal("collective with a dead member did not abort")
	}
	if finished != 4 {
		t.Fatalf("%d of 4 members finished after the abort — survivors would hang", finished)
	}
}

func TestLaunchOntoFailedDeviceFinishesImmediately(t *testing.T) {
	eng, n := testNode(t, 2)
	n.FailDevice(1)
	var done simclock.Time
	fired := false
	eng.At(10*time.Microsecond, func(simclock.Time) {
		n.NewStream(1).Launch(KernelSpec{
			Name: "late", Class: Compute, Duration: 100 * time.Microsecond,
			ComputeDemand: 0.5, MemBWDemand: 0.2,
			OnDone: func(now simclock.Time, _ int) { fired, done = true, now }})
	})
	eng.Run()
	if !fired {
		t.Fatal("kernel launched onto a dead device never completed")
	}
	// Cancelled at delivery, not executed: delivery latency is 5µs.
	if want := simclock.Time(15 * time.Microsecond); done != want {
		t.Fatalf("late kernel completed at %v, want %v", done, want)
	}
}

func TestFailDeviceObserversAndAliveSet(t *testing.T) {
	eng, n := testNode(t, 4)
	var gotDev int
	var gotNow simclock.Time
	calls := 0
	n.OnFail(func(dev int, now simclock.Time) { gotDev, gotNow, calls = dev, now, calls+1 })
	eng.At(25*time.Microsecond, func(simclock.Time) {
		n.FailDevice(1)
		n.FailDevice(1) // idempotent: observers fire once
	})
	eng.Run()
	if calls != 1 || gotDev != 1 || gotNow != simclock.Time(25*time.Microsecond) {
		t.Fatalf("observer calls=%d dev=%d now=%v", calls, gotDev, gotNow)
	}
	if n.NumAlive() != 3 {
		t.Fatalf("NumAlive = %d, want 3", n.NumAlive())
	}
	if want := []int{0, 2, 3}; !reflect.DeepEqual(n.AliveDevices(), want) {
		t.Fatalf("AliveDevices = %v, want %v", n.AliveDevices(), want)
	}
	if !n.Device(1).Failed() || n.Device(0).Failed() {
		t.Fatal("Failed() flags wrong")
	}
}

func TestHealthProbesSkipFailedDevices(t *testing.T) {
	eng, n := testNode(t, 3)
	n.Device(1).SetSpeed(0.2)
	n.Device(1).SetLinkFactor(0.1)
	n.FailDevice(1)
	eng.Run()
	// The dead device's degradation must not trip post-recovery health
	// checks; the survivors are healthy.
	if h := n.MinHealth(); h != 1 {
		t.Fatalf("MinHealth = %v with only the dead device degraded", h)
	}
	if h := n.MinLinkHealth(); h != 1 {
		t.Fatalf("MinLinkHealth = %v with only the dead device degraded", h)
	}
	if h := n.Device(1).HealthFactor(); h != 0 {
		t.Fatalf("dead device HealthFactor = %v, want 0", h)
	}
}

func TestWindowTransitionsAfterDeathAreNoOps(t *testing.T) {
	eng, n := testNode(t, 1)
	n.FailDevice(0)
	// A scheduled fault window closing after the device died must not
	// resurrect its rates.
	n.Device(0).SetSpeed(1)
	n.Device(0).SetLinkFactor(1)
	eng.Run()
	if h := n.Device(0).HealthFactor(); h != 0 {
		t.Fatalf("post-death SetSpeed resurrected the device: health %v", h)
	}
}

func TestMemoryOpsSkipFailedDevices(t *testing.T) {
	eng, n := testNode(t, 3)
	per := n.Device(0).MemCapacity()
	if err := n.AllocAll(per / 2); err != nil {
		t.Fatal(err)
	}
	n.FailDevice(1)
	// Growing the survivors' shard must ignore the dead device (whose
	// pre-failure bytes are stranded) — per-survivor headroom is half.
	if err := n.AllocAll(per / 4); err != nil {
		t.Fatal(err)
	}
	if used := n.Device(1).MemUsed(); used != per/2 {
		t.Fatalf("dead device memory changed: %d", used)
	}
	if used := n.Device(0).MemUsed(); used != per/2+per/4 {
		t.Fatalf("survivor memory %d, want %d", used, per/2+per/4)
	}
	n.FreeAll(per / 4)
	if used := n.Device(1).MemUsed(); used != per/2 {
		t.Fatalf("FreeAll touched the dead device: %d", used)
	}
	eng.Run()
}
