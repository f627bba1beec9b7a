package gpusim

import (
	"testing"
	"time"

	"liger/internal/simclock"
)

func TestStragglerSlowsLocalKernels(t *testing.T) {
	eng, n := testNode(t, 1)
	n.Device(0).SetSpeed(0.5)
	s := n.NewStream(0)
	var done simclock.Time
	launch(s, "k", Compute, 100*time.Microsecond, 0.5, 0.2, &done)
	eng.Run()
	// 100µs of work at half speed = 200µs, plus 5µs delivery.
	if want := 205 * time.Microsecond; done != want {
		t.Fatalf("straggler kernel finished at %v, want %v", done, want)
	}
}

func TestStragglerGatesCollectives(t *testing.T) {
	// One slow device drags the whole collective: the lockstep rate is
	// the minimum across members.
	eng, n := testNode(t, 4)
	n.Device(2).SetSpeed(0.5)
	coll := n.NewCollective(4)
	var done simclock.Time
	for d := 0; d < 4; d++ {
		n.NewStream(d).Launch(KernelSpec{
			Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
			ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll,
			OnDone: func(now simclock.Time, _ int) { done = now }})
	}
	eng.Run()
	if want := 205 * time.Microsecond; done != want {
		t.Fatalf("collective with straggler finished at %v, want %v", done, want)
	}
}

func TestSetSpeedValidation(t *testing.T) {
	_, n := testNode(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero speed accepted")
		}
	}()
	n.Device(0).SetSpeed(0)
}

func TestSpeedAccessor(t *testing.T) {
	_, n := testNode(t, 1)
	if n.Device(0).Speed() != 1 {
		t.Fatal("default speed not 1")
	}
	n.Device(0).SetSpeed(0.8)
	if n.Device(0).Speed() != 0.8 {
		t.Fatal("SetSpeed not recorded")
	}
}
