package gpusim

import (
	"testing"
	"time"

	"liger/internal/hw"
	"liger/internal/simclock"
)

// TestPlanShardsSingleNodeCollapses pins the honest analysis: a single
// node's zero-latency couplings admit exactly one domain, so sharded
// execution must fall back to the plain engine.
func TestPlanShardsSingleNodeCollapses(t *testing.T) {
	plan := PlanShards(hw.V100Node())
	if plan.Domains != 1 {
		t.Fatalf("Domains = %d for a single node, want 1", plan.Domains)
	}
	if plan.Parallel() {
		t.Fatal("single-node plan claims to be parallelizable")
	}
	if len(plan.Couplings) == 0 {
		t.Fatal("plan names no zero-latency couplings — the fallback would look arbitrary")
	}
	for _, c := range plan.Couplings {
		if c.Latency != 0 {
			t.Fatalf("coupling %q has latency %v; couplings are the zero-latency set", c.Name, c.Latency)
		}
	}
}

// TestInterNodeLookahead pins the node-boundary bound the multi-node
// refactor will shard on: the smallest positive boundary latency.
func TestInterNodeLookahead(t *testing.T) {
	spec := hw.V100Node()
	la := InterNodeLookahead(spec)
	if la <= 0 {
		t.Fatalf("InterNodeLookahead = %v, want positive", la)
	}
	want := spec.Interconnect.P2PLatency
	for _, d := range []time.Duration{spec.Interconnect.CollectiveLatency,
		spec.Host.LaunchLatency, spec.Host.NotifyLatency} {
		if d > 0 && d < want {
			want = d
		}
	}
	if la != want {
		t.Fatalf("InterNodeLookahead = %v, want min positive boundary latency %v", la, want)
	}
}

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
