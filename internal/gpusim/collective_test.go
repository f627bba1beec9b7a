package gpusim

import (
	"testing"
	"time"

	"liger/internal/simclock"
)

func TestCollectiveSizeOne(t *testing.T) {
	eng, n := testNode(t, 1)
	coll := n.NewCollective(1)
	var done simclock.Time
	s := n.NewStream(0)
	s.Launch(KernelSpec{Name: "self", Class: Comm, Duration: 10 * time.Microsecond,
		ComputeDemand: 0.05, MemBWDemand: 0.1, Coll: coll,
		OnDone: func(now simclock.Time, _ int) { done = now }})
	eng.Run()
	if done != 15*time.Microsecond {
		t.Fatalf("size-1 collective finished at %v, want 15µs", done)
	}
}

func TestCollectiveZeroSizePanics(t *testing.T) {
	_, n := testNode(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("size 0 collective did not panic")
		}
	}()
	n.NewCollective(0)
}

func TestCollectiveTooManyMembersPanics(t *testing.T) {
	eng, n := testNode(t, 2)
	coll := n.NewCollective(1)
	n.NewStream(0).Launch(KernelSpec{Name: "a", Class: Comm, Duration: time.Microsecond,
		ComputeDemand: 0.05, Coll: coll})
	n.NewStream(1).Launch(KernelSpec{Name: "b", Class: Comm, Duration: time.Microsecond,
		ComputeDemand: 0.05, Coll: coll})
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscribed collective did not panic")
		}
	}()
	eng.Run()
}

func TestCollectiveZeroDuration(t *testing.T) {
	eng, n := testNode(t, 2)
	coll := n.NewCollective(2)
	count := 0
	for d := 0; d < 2; d++ {
		n.NewStream(d).Launch(KernelSpec{Name: "z", Class: Comm, Duration: 0,
			ComputeDemand: 0.05, MemBWDemand: 0.1, Coll: coll,
			OnDone: func(_ simclock.Time, copies int) { count += copies }})
	}
	eng.Run()
	if count != 2 {
		t.Fatalf("zero-duration collective completed %d members", count)
	}
}

func TestBackToBackCollectivesStayOrdered(t *testing.T) {
	eng, n := testNode(t, 2)
	var order []string
	for i := 0; i < 3; i++ {
		coll := n.NewCollective(2)
		name := string(rune('a' + i))
		for d := 0; d < 2; d++ {
			d := d
			s := n.NewStream(d)
			s.Launch(KernelSpec{Name: name, Class: Comm, Duration: 20 * time.Microsecond,
				ComputeDemand: 0.05, MemBWDemand: 0.1, Coll: coll,
				OnDone: func(simclock.Time, int) {
					if d == 0 {
						order = append(order, name)
					}
				}})
		}
	}
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("completed %d collectives", len(order))
	}
	for i, want := range []string{"a", "b", "c"} {
		if order[i] != want {
			t.Fatalf("collective order %v", order)
		}
	}
}

func TestCommSensitivityAmplifiesCollectiveSlowdown(t *testing.T) {
	// With CommBWSensitivity > 1, an overlapped collective slows more
	// than the compute kernel contending with it.
	eng, n := testNode(t, 1) // V100 spec: sensitivity 2.4
	coll := n.NewCollective(1)
	var commDone, compDone simclock.Time
	n.NewStreamOnConnection(0, 0).Launch(KernelSpec{
		Name: "gemm", Class: Compute, Duration: 300 * time.Microsecond,
		ComputeDemand: 0.7, MemBWDemand: 0.6,
		OnDone: func(now simclock.Time, _ int) { compDone = now }})
	n.NewStreamOnConnection(0, 1).Launch(KernelSpec{
		Name: "ar", Class: Comm, Duration: 300 * time.Microsecond,
		ComputeDemand: 0.05, MemBWDemand: 0.6, Coll: coll,
		OnDone: func(now simclock.Time, _ int) { commDone = now }})
	eng.Run()
	if commDone <= compDone {
		t.Fatalf("comm (%v) should outlast equally-sized compute (%v) under contention", commDone, compDone)
	}
}

func TestCollectiveAccessors(t *testing.T) {
	_, n := testNode(t, 4)
	c := n.NewCollective(4)
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
	if c.Started() {
		t.Fatal("unjoined collective reports started")
	}
}
