package gpusim

import (
	"testing"
	"time"

	"liger/internal/hw"
	"liger/internal/simclock"
)

// TestEventCountersClassifyScheduling checks the per-subsystem counters
// move when the matching subsystem schedules, and that their total stays
// consistent with real engine activity.
func TestEventCountersClassifyScheduling(t *testing.T) {
	eng := simclock.New()
	n := MustNew(eng, hw.V100Node())
	if c := n.EventCounters(); c.Total() != 0 {
		t.Fatalf("fresh node has nonzero event counters: %+v", c)
	}
	s := n.NewStream(0)
	done := false
	s.Launch(KernelSpec{Name: "k", Class: Compute, Duration: time.Millisecond,
		ComputeDemand: 0.5, MemBWDemand: 0.2, Req: -1,
		OnDone: func(simclock.Time, int) { done = true }})
	ev := s.Record()
	hostSeen := false
	ev.OnHost(func(simclock.Time) { hostSeen = true })
	eng.Run()
	if !done || !hostSeen {
		t.Fatalf("workload did not complete: done=%v hostSeen=%v", done, hostSeen)
	}
	c := n.EventCounters()
	if c.Stream == 0 {
		t.Fatal("stream command deliveries not counted")
	}
	if c.Device == 0 {
		t.Fatal("kernel completion arms not counted")
	}
	if c.Host == 0 {
		t.Fatal("host notifications not counted")
	}
	if c.Total() > eng.Fired()+uint64(eng.Pending()) {
		t.Fatalf("counters total %d exceeds events ever scheduled (%d fired + %d pending)",
			c.Total(), eng.Fired(), eng.Pending())
	}
}
