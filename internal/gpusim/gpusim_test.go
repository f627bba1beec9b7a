package gpusim

import (
	"testing"
	"testing/quick"
	"time"

	"liger/internal/hw"
	"liger/internal/simclock"
)

// testNode returns a small node with round launch constants so expected
// times are easy to compute by hand.
func testNode(t testing.TB, gpus int) (*simclock.Engine, *Node) {
	t.Helper()
	spec := hw.V100Node()
	spec.NumGPUs = gpus
	spec.Host.LaunchLatency = 5 * time.Microsecond
	spec.Host.IssueGap = 1 * time.Microsecond
	spec.Host.NotifyLatency = 2 * time.Microsecond
	spec.Host.SyncJitterPerDevice = 4 * time.Microsecond
	eng := simclock.New()
	n, err := New(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

func launch(s *Stream, name string, class KernelClass, dur time.Duration, compute, membw float64, done *simclock.Time) {
	s.Launch(KernelSpec{
		Name: name, Class: class, Duration: dur,
		ComputeDemand: compute, MemBWDemand: membw,
		OnDone: func(now simclock.Time, _ int) {
			if done != nil {
				*done = now
			}
		},
	})
}

func TestSingleKernelLaunchLatency(t *testing.T) {
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	var done simclock.Time
	launch(s, "k", Compute, 100*time.Microsecond, 0.9, 0.5, &done)
	eng.Run()
	// Delivery at 5µs, runs 100µs solo.
	if want := 105 * time.Microsecond; done != want {
		t.Fatalf("kernel finished at %v, want %v", done, want)
	}
}

func TestStreamInOrderExecution(t *testing.T) {
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	var d1, d2, d3 simclock.Time
	launch(s, "a", Compute, 10*time.Microsecond, 0.9, 0.5, &d1)
	launch(s, "b", Compute, 20*time.Microsecond, 0.9, 0.5, &d2)
	launch(s, "c", Compute, 30*time.Microsecond, 0.9, 0.5, &d3)
	eng.Run()
	if !(d1 < d2 && d2 < d3) {
		t.Fatalf("stream order violated: %v %v %v", d1, d2, d3)
	}
	// Back-to-back: a ends 15µs, b ends 35µs, c ends 65µs (deliveries at
	// 5,6,7µs all precede their turn).
	if want := 65 * time.Microsecond; d3 != want {
		t.Fatalf("c finished at %v, want %v", d3, want)
	}
}

func TestIssueGapSerializesBurst(t *testing.T) {
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	var last simclock.Time
	// 20 zero-duration kernels: completion is delivery-bound, so the
	// final one lands at launchLatency + 19*issueGap.
	for i := 0; i < 20; i++ {
		launch(s, "z", Compute, 0, 0.1, 0, &last)
	}
	eng.Run()
	if want := 5*time.Microsecond + 19*time.Microsecond; last != want {
		t.Fatalf("burst finished at %v, want %v", last, want)
	}
}

func TestSeparateConnectionsDeliverIndependently(t *testing.T) {
	eng, n := testNode(t, 1)
	s0 := n.NewStreamOnConnection(0, 0)
	s1 := n.NewStreamOnConnection(0, 1)
	var a, b simclock.Time
	// Fill connection 0 with a burst; connection 1's kernel must not be
	// delayed behind it.
	for i := 0; i < 10; i++ {
		launch(s0, "burst", Compute, 0, 0.05, 0, &a)
	}
	launch(s1, "solo", Comm, 0, 0.05, 0, &b)
	eng.Run()
	if want := 5 * time.Microsecond; b != want {
		t.Fatalf("kernel on independent connection finished at %v, want %v", b, want)
	}
	if a <= b {
		t.Fatalf("burst should finish after solo: burst %v, solo %v", a, b)
	}
}

func TestSharedConnectionDelaysCommKernel(t *testing.T) {
	// The §2.3.1 lag: a comm kernel behind a burst of compute launches on
	// the same connection is delivered late.
	eng, n := testNode(t, 1)
	s0 := n.NewStreamOnConnection(0, 0)
	s1 := n.NewStreamOnConnection(0, 0) // same connection
	for i := 0; i < 10; i++ {
		launch(s0, "burst", Compute, 0, 0.05, 0, nil)
	}
	var b simclock.Time
	launch(s1, "comm", Comm, 0, 0.05, 0, &b)
	eng.Run()
	if want := 5*time.Microsecond + 10*time.Microsecond; b != want {
		t.Fatalf("comm behind shared connection finished at %v, want %v", b, want)
	}
}

func TestConcurrentStreamsShareDevice(t *testing.T) {
	eng, n := testNode(t, 1)
	s0 := n.NewStream(0)
	s1 := n.NewStream(0)
	var a, b simclock.Time
	// Two kernels that fit together (0.4+0.4 SMs) and do not oversubscribe
	// bandwidth: they run fully concurrently.
	launch(s0, "a", Compute, 100*time.Microsecond, 0.4, 0.3, &a)
	launch(s1, "b", Compute, 100*time.Microsecond, 0.4, 0.3, &b)
	eng.Run()
	if a != 105*time.Microsecond {
		t.Fatalf("a finished at %v, want 105µs", a)
	}
	// b delivered at 6µs (issue gap on next connection? no: different
	// connections round-robin) — both connections, so delivered at 5µs on
	// conn1 and finishes at 105µs too.
	if b != 105*time.Microsecond {
		t.Fatalf("b finished at %v, want 105µs", b)
	}
}

func TestLeftOverAdmissionSerializesBigKernels(t *testing.T) {
	eng, n := testNode(t, 1)
	s0 := n.NewStream(0)
	s1 := n.NewStream(0)
	var a, b simclock.Time
	// Two 0.9-SM kernels cannot co-run: the second waits (same-type
	// interference, Principle 1's concern).
	launch(s0, "a", Compute, 100*time.Microsecond, 0.9, 0.4, &a)
	launch(s1, "b", Compute, 100*time.Microsecond, 0.9, 0.4, &b)
	eng.Run()
	if a != 105*time.Microsecond {
		t.Fatalf("a finished at %v, want 105µs", a)
	}
	if b != 205*time.Microsecond {
		t.Fatalf("b finished at %v, want 205µs (serialized)", b)
	}
}

func TestSmallKernelBypassesBlockedBigKernel(t *testing.T) {
	eng, n := testNode(t, 1)
	s0 := n.NewStream(0)
	s1 := n.NewStream(0)
	s2 := n.NewStream(0)
	var small simclock.Time
	launch(s0, "big1", Compute, 100*time.Microsecond, 0.9, 0.0, nil)
	launch(s1, "big2", Compute, 100*time.Microsecond, 0.9, 0.0, nil)
	launch(s2, "small", Comm, 10*time.Microsecond, 0.05, 0.0, &small)
	eng.Run()
	// small fits alongside big1 even though big2 is queued ahead of it.
	if small > 20*time.Microsecond {
		t.Fatalf("small kernel did not bypass blocked big kernel: finished %v", small)
	}
}

func TestMemBWContentionSlowsBothKernels(t *testing.T) {
	eng, n := testNode(t, 1)
	s0 := n.NewStream(0)
	s1 := n.NewStream(0)
	var a, b simclock.Time
	// Combined bandwidth demand 1.5 → both run at 2/3 speed while
	// overlapped.
	launch(s0, "a", Compute, 90*time.Microsecond, 0.4, 0.75, &a)
	launch(s1, "b", Compute, 90*time.Microsecond, 0.4, 0.75, &b)
	eng.Run()
	// Both delivered at 5µs, overlap entirely: 90µs of work at rate 1/1.5
	// takes 135µs.
	if want := 140 * time.Microsecond; a != want || b != want {
		t.Fatalf("contended kernels finished at %v/%v, want %v", a, b, want)
	}
}

func TestContentionRateRecoversAfterNeighborFinishes(t *testing.T) {
	eng, n := testNode(t, 1)
	s0 := n.NewStream(0)
	s1 := n.NewStream(0)
	var a, b simclock.Time
	launch(s0, "short", Compute, 30*time.Microsecond, 0.4, 0.75, &a)
	launch(s1, "long", Compute, 90*time.Microsecond, 0.4, 0.75, &b)
	eng.Run()
	// Overlap at rate 2/3 until short completes: short needs 45µs wall
	// (done at 50µs). Long progressed 30µs of work in those 45µs, has
	// 60µs left at full rate → done at 110µs.
	if want := 50 * time.Microsecond; a != want {
		t.Fatalf("short finished at %v, want %v", a, want)
	}
	if want := 110 * time.Microsecond; b != want {
		t.Fatalf("long finished at %v, want %v", b, want)
	}
}

func TestEventRecordAndWait(t *testing.T) {
	eng, n := testNode(t, 1)
	s0 := n.NewStream(0)
	s1 := n.NewStream(0)
	var gated simclock.Time
	launch(s0, "producer", Compute, 50*time.Microsecond, 0.5, 0.2, nil)
	ev := s0.Record()
	s1.Wait(ev)
	launch(s1, "consumer", Compute, 10*time.Microsecond, 0.5, 0.2, &gated)
	eng.Run()
	if !ev.Fired() {
		t.Fatal("event never fired")
	}
	// producer ends at 55µs; consumer runs 10µs after that.
	if want := 65 * time.Microsecond; gated != want {
		t.Fatalf("gated kernel finished at %v, want %v", gated, want)
	}
}

func TestWaitOnAlreadyFiredEvent(t *testing.T) {
	eng, n := testNode(t, 1)
	s0 := n.NewStream(0)
	ev := s0.Record()
	eng.Run()
	if !ev.Fired() {
		t.Fatal("empty-stream record did not fire")
	}
	s1 := n.NewStream(0)
	s1.Wait(ev)
	var done simclock.Time
	launch(s1, "after", Compute, 10*time.Microsecond, 0.5, 0, &done)
	eng.Run()
	if done == 0 {
		t.Fatal("kernel behind fired event never ran")
	}
}

func TestEventOnHostAddsNotifyLatency(t *testing.T) {
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	launch(s, "k", Compute, 50*time.Microsecond, 0.5, 0.2, nil)
	ev := s.Record()
	var hostAt simclock.Time
	ev.OnHost(func(now simclock.Time) { hostAt = now })
	eng.Run()
	if want := ev.FiredAt() + 2*time.Microsecond; hostAt != want {
		t.Fatalf("host notified at %v, want %v", hostAt, want)
	}
}

func TestCollectiveRendezvous(t *testing.T) {
	eng, n := testNode(t, 4)
	coll := n.NewCollective(4)
	var done [4]simclock.Time
	for d := 0; d < 4; d++ {
		d := d
		s := n.NewStream(d)
		// Device d first runs a compute kernel of length d*20µs, then the
		// collective: the collective cannot start before the slowest rank.
		if d > 0 {
			launch(s, "pre", Compute, time.Duration(d)*20*time.Microsecond, 0.9, 0.3, nil)
		}
		s.Launch(KernelSpec{
			Name: "allreduce", Class: Comm, Duration: 40 * time.Microsecond,
			ComputeDemand: 0.08, MemBWDemand: 0.5, Coll: coll,
			OnDone: func(now simclock.Time, _ int) { done[d] = now },
		})
	}
	eng.Run()
	// Slowest rank (d=3): pre ends at 5µs+60µs=65µs; its member delivered
	// earlier, admitted at 65µs (head-of-stream). Collective runs 40µs.
	want := 105 * time.Microsecond
	for d := 0; d < 4; d++ {
		if done[d] != simclock.Time(want) {
			t.Fatalf("device %d collective finished at %v, want %v", d, done[d], want)
		}
	}
}

func TestCollectiveSlowedByContentionOnOneDevice(t *testing.T) {
	eng, n := testNode(t, 2)
	coll := n.NewCollective(2)
	var commDone simclock.Time
	for d := 0; d < 2; d++ {
		s := n.NewStream(d)
		s.Launch(KernelSpec{
			Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
			ComputeDemand: 0.08, MemBWDemand: 0.6, Coll: coll,
			OnDone: func(now simclock.Time, _ int) { commDone = now },
		})
	}
	// A bandwidth-hungry compute kernel on device 0 only.
	sC := n.NewStream(0)
	launch(sC, "gemm", Compute, 200*time.Microsecond, 0.85, 0.6, nil)
	eng.Run()
	// Device 0 oversubscribed at 1.2 → collective rate 1/1.2 while the
	// GEMM runs; it must finish later than the solo 105µs.
	if commDone <= 105*time.Microsecond {
		t.Fatalf("collective unaffected by contention: finished %v", commDone)
	}
	// And no later than full serialization would imply.
	if commDone > 305*time.Microsecond {
		t.Fatalf("collective too slow: %v", commDone)
	}
}

func TestHostBarrierTiming(t *testing.T) {
	eng, n := testNode(t, 4)
	var evs []*Event
	for d := 0; d < 4; d++ {
		s := n.NewStream(d)
		launch(s, "k", Compute, 50*time.Microsecond, 0.9, 0.3, nil)
		evs = append(evs, s.Record())
	}
	var at simclock.Time
	n.HostBarrier(evs, func(now simclock.Time) { at = now })
	eng.Run()
	// Barrier = last event + notify (2µs) + 4 devices * 4µs jitter = +18µs.
	var latest simclock.Time
	for _, ev := range evs {
		if ev.FiredAt() > latest {
			latest = ev.FiredAt()
		}
	}
	if want := latest + 18*time.Microsecond; at != want {
		t.Fatalf("barrier at %v, want %v", at, want)
	}
}

func TestHostBarrierEmpty(t *testing.T) {
	eng, n := testNode(t, 1)
	called := false
	n.HostBarrier(nil, func(simclock.Time) { called = true })
	eng.Run()
	if !called {
		t.Fatal("empty barrier never fired")
	}
}

func TestDeviceStatsOverlapAccounting(t *testing.T) {
	eng, n := testNode(t, 1)
	s0 := n.NewStream(0)
	s1 := n.NewStream(0)
	launch(s0, "gemm", Compute, 100*time.Microsecond, 0.8, 0.0, nil)
	launch(s1, "comm", Comm, 100*time.Microsecond, 0.1, 0.0, nil)
	eng.Run()
	st := n.Stats()[0]
	if st.KernelsRun != 2 {
		t.Fatalf("KernelsRun = %d, want 2", st.KernelsRun)
	}
	if st.ComputeBusy != 100*time.Microsecond {
		t.Fatalf("ComputeBusy = %v, want 100µs", st.ComputeBusy)
	}
	if st.CommBusy != 100*time.Microsecond {
		t.Fatalf("CommBusy = %v, want 100µs", st.CommBusy)
	}
	if st.OverlapBusy != 100*time.Microsecond {
		t.Fatalf("OverlapBusy = %v, want 100µs", st.OverlapBusy)
	}
}

func TestZeroDurationKernel(t *testing.T) {
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	var done simclock.Time
	launch(s, "null", Compute, 0, 0.5, 0.5, &done)
	eng.Run()
	if done != 5*time.Microsecond {
		t.Fatalf("null kernel finished at %v, want 5µs (delivery only)", done)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	_, n := testNode(t, 1)
	s := n.NewStream(0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	s.Launch(KernelSpec{Duration: -time.Microsecond})
}

// recordingTracer keeps the spans it receives.
type recordingTracer struct {
	nopTracer
	spans []KernelSpan
}

func (r *recordingTracer) KernelSpan(sp KernelSpan) { r.spans = append(r.spans, sp) }

func TestTracerSeesAllKernels(t *testing.T) {
	eng, n := testNode(t, 2)
	tr := &recordingTracer{}
	n.SetTracer(tr)
	coll := n.NewCollective(2)
	for d := 0; d < 2; d++ {
		s := n.NewStream(d)
		launch(s, "c", Compute, 10*time.Microsecond, 0.5, 0.2, nil)
		s.Launch(KernelSpec{Name: "ar", Class: Comm, Duration: 10 * time.Microsecond,
			ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll})
	}
	eng.Run()
	if len(tr.spans) != 4 {
		t.Fatalf("tracer saw %d spans, want 4", len(tr.spans))
	}
	var transfer []simclock.Time
	for _, sp := range tr.spans {
		if sp.Start <= 0 || sp.End <= sp.Start {
			t.Fatalf("span %+v does not start before it ends", sp)
		}
		if sp.Coll >= 0 {
			transfer = append(transfer, sp.Start)
		}
	}
	if len(transfer) != 2 || transfer[0] != transfer[1] {
		t.Fatalf("collective member spans start at %v, want one shared transfer start", transfer)
	}
}

// Property: with arbitrary kernel mixes on one device, the simulator
// terminates, runs every kernel, and total busy time is at least the
// longest single kernel (conservation sanity).
func TestPropertyAllKernelsComplete(t *testing.T) {
	f := func(durs []uint8, demands []uint8) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 40 {
			durs = durs[:40]
		}
		eng, n := testNode(t, 1)
		completed := 0
		var longest time.Duration
		for i, du := range durs {
			dem := 0.1
			if len(demands) > 0 {
				dem = 0.05 + float64(demands[i%len(demands)]%90)/100.0
			}
			d := time.Duration(du) * time.Microsecond
			if d > longest {
				longest = d
			}
			s := n.NewStream(0)
			s.Launch(KernelSpec{
				Name: "k", Class: Compute, Duration: d,
				ComputeDemand: dem, MemBWDemand: dem,
				OnDone: func(_ simclock.Time, copies int) { completed += copies },
			})
		}
		eng.Run()
		if completed != len(durs) {
			return false
		}
		return n.Stats()[0].ComputeBusy >= longest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: simulation is deterministic — same workload twice gives the
// same completion times.
func TestPropertyDeterminism(t *testing.T) {
	run := func() []simclock.Time {
		eng, n := testNode(t, 2)
		var times []simclock.Time
		coll := n.NewCollective(2)
		for d := 0; d < 2; d++ {
			s := n.NewStream(d)
			for i := 0; i < 5; i++ {
				s.Launch(KernelSpec{Name: "c", Class: Compute,
					Duration:      time.Duration(10+3*i) * time.Microsecond,
					ComputeDemand: 0.7, MemBWDemand: 0.5,
					OnDone: func(now simclock.Time, _ int) { times = append(times, now) }})
			}
			s.Launch(KernelSpec{Name: "ar", Class: Comm, Duration: 25 * time.Microsecond,
				ComputeDemand: 0.06, MemBWDemand: 0.5, Coll: coll,
				OnDone: func(now simclock.Time, _ int) { times = append(times, now) }})
		}
		eng.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStreamAccessors(t *testing.T) {
	_, n := testNode(t, 2)
	s := n.NewStream(1)
	if s.DeviceID() != 1 {
		t.Fatalf("DeviceID = %d", s.DeviceID())
	}
	if !s.Idle() || s.QueueLen() != 0 {
		t.Fatal("fresh stream not idle")
	}
	s.Launch(KernelSpec{Name: "k", Class: Compute, Duration: time.Microsecond, ComputeDemand: 0.1})
	if s.Idle() || s.QueueLen() != 1 {
		t.Fatal("queued stream reports idle")
	}
}

func TestObserveFiresAtEventInstant(t *testing.T) {
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	launch(s, "k", Compute, 50*time.Microsecond, 0.5, 0.2, nil)
	ev := s.Record()
	var observed simclock.Time
	ev.Observe(func(now simclock.Time) { observed = now })
	eng.Run()
	if observed != ev.FiredAt() {
		t.Fatalf("Observe at %v, event fired at %v (must be zero-latency)", observed, ev.FiredAt())
	}
}

func TestCrossDeviceEventWait(t *testing.T) {
	// Events synchronize across devices too (the host records on one
	// device's stream; another device's stream waits).
	eng, n := testNode(t, 2)
	s0 := n.NewStream(0)
	s1 := n.NewStream(1)
	launch(s0, "producer", Compute, 80*time.Microsecond, 0.5, 0.2, nil)
	ev := s0.Record()
	s1.Wait(ev)
	var done simclock.Time
	launch(s1, "consumer", Compute, 10*time.Microsecond, 0.5, 0.2, &done)
	eng.Run()
	if done <= ev.FiredAt() {
		t.Fatalf("cross-device consumer finished %v before producer event %v", done, ev.FiredAt())
	}
}

func TestNodeAccessors(t *testing.T) {
	eng, n := testNode(t, 3)
	if n.NumDevices() != 3 {
		t.Fatalf("NumDevices = %d", n.NumDevices())
	}
	if n.Engine() != eng {
		t.Fatal("Engine accessor wrong")
	}
	if n.Spec().NumGPUs != 3 {
		t.Fatal("Spec accessor wrong")
	}
	if n.Device(2).ID() != 2 {
		t.Fatal("Device accessor wrong")
	}
}

func TestBadConnectionPanics(t *testing.T) {
	_, n := testNode(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range connection accepted")
		}
	}()
	n.NewStreamOnConnection(0, 99)
}

// A contention pass returns at once only when it already ran at this
// instant and nothing it reads changed since. A kernel leaving the
// running set or a speed or link change at the same instant still
// re-rates the kernels that stay.
func TestRecomputeRepeatsOnlyWhenNothingChanged(t *testing.T) {
	eng, n := testNode(t, 1)
	n.spec.Contention.CommBWSensitivity = 2
	d := n.Device(0)
	launch(n.NewStream(0), "a", Compute, 100*time.Microsecond, 0.3, 0.6, nil)
	launch(n.NewStream(0), "b", Compute, 100*time.Microsecond, 0.3, 0.6, nil)
	launch(n.NewStream(0), "c", Comm, 100*time.Microsecond, 0.1, 0.3, nil)
	checked := false
	eng.At(simclock.Time(20*time.Microsecond), func(now simclock.Time) {
		checked = true
		if len(d.running) != 3 {
			t.Fatalf("%d kernels running, want 3", len(d.running))
		}
		a, b, c := d.running[0], d.running[1], d.running[2]
		rates := func(what string, wantA, wantC float64) {
			t.Helper()
			if a.rate != wantA || c.rate != wantC {
				t.Fatalf("%s: rates %v (compute) and %v (comm), want %v and %v", what, a.rate, c.rate, wantA, wantC)
			}
		}
		d.recompute(now)
		rates("oversubscribed", 1/1.5, 1/(1.5*1.5))
		d.recompute(now)
		rates("repeated pass", 1/1.5, 1/(1.5*1.5))
		d.finish(b, now)
		rates("after a finish", 1, 1)
		d.SetSpeed(0.5)
		rates("after a slowdown", 0.5, 0.5)
		d.SetLinkFactor(0.25)
		rates("after a link degradation", 0.5, 0.125)
	})
	eng.Run()
	if !checked {
		t.Fatal("the check never ran")
	}
}
