package analyze_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"liger/internal/analyze"
	"liger/internal/core"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/scenario"
	"liger/internal/simclock"
	"liger/internal/trace"
)

func simNode(t testing.TB, gpus int) (*simclock.Engine, *gpusim.Node, *trace.Recorder) {
	t.Helper()
	spec := hw.V100Node()
	spec.NumGPUs = gpus
	eng := simclock.New()
	n, err := gpusim.New(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	n.SetTracer(rec)
	return eng, n, rec
}

func us(n int) simclock.Time { return simclock.Time(n) * simclock.Time(time.Microsecond) }

// assertTiling checks the critical-path invariant the ISSUE pins: the
// segments are ascending, contiguous, and tile [0, makespan] exactly,
// so their durations sum to the end-to-end time.
func assertTiling(t *testing.T, rep *analyze.Report) {
	t.Helper()
	segs := rep.CriticalPath.Segments
	if len(segs) == 0 {
		t.Fatal("critical path has no segments")
	}
	if segs[0].Start != 0 {
		t.Fatalf("critical path does not start at 0: %+v", segs[0])
	}
	var sum simclock.Time
	for i, s := range segs {
		if s.End <= s.Start {
			t.Fatalf("empty or inverted segment: %+v", s)
		}
		if i > 0 && s.Start != segs[i-1].End {
			t.Fatalf("segment %d not contiguous: %+v after %+v", i, s, segs[i-1])
		}
		sum += s.End - s.Start
	}
	if last := segs[len(segs)-1].End; last != rep.Makespan {
		t.Fatalf("critical path ends at %v, makespan %v", last, rep.Makespan)
	}
	if sum != rep.Makespan {
		t.Fatalf("segment durations sum to %v, makespan %v", sum, rep.Makespan)
	}
	var totalSum simclock.Time
	for _, v := range rep.CriticalPath.Totals {
		totalSum += v
	}
	if totalSum != rep.Makespan {
		t.Fatalf("kind totals sum to %v, makespan %v", totalSum, rep.Makespan)
	}
}

// A plain in-order kernel chain decomposes into one launch segment
// (the first kernel's delivery) plus pure compute.
func TestCriticalPathSimpleChain(t *testing.T) {
	eng, n, rec := simNode(t, 1)
	s := n.NewStream(0)
	k := gpusim.KernelSpec{Name: "gemm", Class: gpusim.Compute,
		Duration: 10 * time.Microsecond, ComputeDemand: 0.9, Req: -1}
	for i := 0; i < 3; i++ {
		s.Launch(k)
	}
	eng.Run()

	rep := analyze.Analyze(rec, analyze.Options{})
	if rep.Makespan != us(35) {
		t.Fatalf("makespan %v, want 35µs", rep.Makespan)
	}
	assertTiling(t, rep)
	if got := rep.CriticalPath.Totals[analyze.SegCompute]; got != us(30) {
		t.Fatalf("compute total %v, want 30µs", got)
	}
	if got := rep.CriticalPath.Totals[analyze.SegLaunch]; got != us(5) {
		t.Fatalf("launch total %v, want 5µs (base delivery latency)", got)
	}
	top := rep.CriticalPath.Contributors[0]
	if top.Kernel != "gemm" || top.Kind != analyze.SegCompute || top.Count != 3 {
		t.Fatalf("top contributor should be the gemm chain: %+v", top)
	}
}

// A kernel blocked on SM capacity routes the path through the kernel
// whose finish freed the device — no artificial wait segment, the
// blocker's execution is the explanation.
func TestCriticalPathCapacityHop(t *testing.T) {
	eng, n, rec := simNode(t, 1)
	k := gpusim.KernelSpec{Name: "big", Class: gpusim.Compute,
		Duration: 100 * time.Microsecond, ComputeDemand: 0.9, Req: -1}
	n.NewStreamOnConnection(0, 0).Launch(k)
	n.NewStreamOnConnection(0, 1).Launch(k)
	eng.Run()

	rep := analyze.Analyze(rec, analyze.Options{})
	assertTiling(t, rep)
	if got := rep.CriticalPath.Totals[analyze.SegCompute]; got != us(200) {
		t.Fatalf("compute total %v, want 200µs (both serialized executions)", got)
	}
	if got := rep.CriticalPath.Totals[analyze.SegDepWait]; got != 0 {
		t.Fatalf("capacity hop should be zero-gap, got dep-wait %v", got)
	}
}

// Collective routing: the earliest member surfaces its rendezvous
// stall; the binding member routes into what made it late instead.
func TestCriticalPathCollectiveRouting(t *testing.T) {
	run := func(routing string) *analyze.Report {
		eng, n, rec := simNode(t, 2)
		coll := n.NewCollective(2)
		member := gpusim.KernelSpec{Name: "allreduce", Class: gpusim.Comm,
			Duration: 20 * time.Microsecond, ComputeDemand: 0.05, Coll: coll, Req: -1}
		s0 := n.NewStream(0)
		s0.Launch(gpusim.KernelSpec{Name: "gemm", Class: gpusim.Compute,
			Duration: 50 * time.Microsecond, ComputeDemand: 0.9, Req: -1})
		s0.Launch(member)
		n.NewStream(1).Launch(member)
		eng.Run()
		rep := analyze.Analyze(rec, analyze.Options{Routing: routing})
		assertTiling(t, rep)
		return rep
	}

	earliest := run(analyze.RouteEarliest)
	if got := earliest.CriticalPath.Totals[analyze.SegRendezvous]; got != us(50) {
		t.Fatalf("earliest routing should surface the 50µs rendezvous stall, got %v", got)
	}
	binding := run(analyze.RouteBinding)
	if got := binding.CriticalPath.Totals[analyze.SegRendezvous]; got != 0 {
		t.Fatalf("binding routing should have no rendezvous segment, got %v", got)
	}
	if got := binding.CriticalPath.Totals[analyze.SegCompute]; got != us(50) {
		t.Fatalf("binding routing should charge the late member's gemm, got %v", got)
	}
}

// Gap attribution: launch-queue time, rendezvous spins and no-work
// intervals classify by the documented priority.
func TestGapAttribution(t *testing.T) {
	eng, n, rec := simNode(t, 2)
	coll := n.NewCollective(2)
	member := gpusim.KernelSpec{Name: "allreduce", Class: gpusim.Comm,
		Duration: 20 * time.Microsecond, ComputeDemand: 0.05, Coll: coll, Req: -1}
	s0 := n.NewStream(0)
	s0.Launch(gpusim.KernelSpec{Name: "gemm", Class: gpusim.Compute,
		Duration: 50 * time.Microsecond, ComputeDemand: 0.9, Req: -1})
	s0.Launch(member)
	n.NewStream(1).Launch(member)
	eng.Run()

	rep := analyze.Analyze(rec, analyze.Options{})
	causeAt := func(dev int, at simclock.Time) string {
		for _, g := range rep.Gaps.Gaps {
			if g.Device == dev && g.Start <= at && at < g.End {
				return g.Cause
			}
		}
		return ""
	}
	// Both devices idle [0, 5µs) while the first launches sit in the
	// queue; device 1 then spins on its late peer until 55µs.
	if c := causeAt(0, us(2)); c != analyze.GapLaunch {
		t.Fatalf("device 0 pre-delivery gap classified %q, want launch", c)
	}
	if c := causeAt(1, us(30)); c != analyze.GapRendezvous {
		t.Fatalf("device 1 rendezvous spin classified %q, want rendezvous", c)
	}
	// Gap totals cover exactly the idle time — nothing double-counted.
	var sum simclock.Time
	for _, v := range rep.Gaps.Totals {
		sum += v
	}
	if sum != rep.Gaps.Idle {
		t.Fatalf("gap totals %v != idle %v", sum, rep.Gaps.Idle)
	}
	if rep.Gaps.Idle != 2*rep.Makespan-spanTime(rec) {
		t.Fatalf("idle %v inconsistent with busy time", rep.Gaps.Idle)
	}
}

func spanTime(rec *trace.Recorder) simclock.Time {
	var t simclock.Time
	for _, sp := range rec.Spans() {
		t += sp.End - sp.Start
	}
	return t
}

// A long pause with nothing issued is no-work, not a dependency gap.
func TestGapNoWork(t *testing.T) {
	eng, n, rec := simNode(t, 1)
	s := n.NewStream(0)
	k := gpusim.KernelSpec{Name: "k", Class: gpusim.Compute,
		Duration: 10 * time.Microsecond, ComputeDemand: 0.5, Req: -1}
	s.Launch(k)
	eng.At(us(100), func(simclock.Time) { s.Launch(k) })
	eng.Run()

	rep := analyze.Analyze(rec, analyze.Options{})
	if got := rep.Gaps.Totals[analyze.GapNoWork]; got != us(85) {
		t.Fatalf("no-work total %v, want 85µs (15µs..100µs)", got)
	}
	if got := rep.Gaps.Totals[analyze.GapLaunch]; got != us(10) {
		t.Fatalf("launch total %v, want 10µs (two deliveries)", got)
	}
}

// Overlap: comm running under compute is hidden, comm alone exposed.
func TestOverlapReport(t *testing.T) {
	eng, n, rec := simNode(t, 1)
	sa := n.NewStreamOnConnection(0, 0)
	sb := n.NewStreamOnConnection(0, 1)
	sa.Launch(gpusim.KernelSpec{Name: "gemm", Class: gpusim.Compute,
		Duration: 100 * time.Microsecond, ComputeDemand: 0.3, Req: -1})
	sb.Launch(gpusim.KernelSpec{Name: "copy", Class: gpusim.Comm,
		Duration: 40 * time.Microsecond, ComputeDemand: 0.05, Req: -1})
	eng.At(us(200), func(simclock.Time) {
		sb.Launch(gpusim.KernelSpec{Name: "copy", Class: gpusim.Comm,
			Duration: 40 * time.Microsecond, ComputeDemand: 0.05, Req: -1})
	})
	eng.Run()

	rep := analyze.Analyze(rec, analyze.Options{})
	o := rep.Overlap
	if o.Comm != us(80) || o.Hidden != us(40) || o.Exposed != us(40) {
		t.Fatalf("overlap comm/hidden/exposed = %v/%v/%v, want 80/40/40µs", o.Comm, o.Hidden, o.Exposed)
	}
	if o.ExposedShare != 0.5 {
		t.Fatalf("exposed share %v, want 0.5", o.ExposedShare)
	}
}

// Recorder.OverlapTime and the overlap report's Hidden are the same
// interval intersection: they agree on every device of a traced Liger
// run that loses a device mid-run.
func TestIntervalOverlapTimeMatchesHidden(t *testing.T) {
	sc, err := scenario.Load("../../scenarios/mid-run-device-loss.yaml")
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := scenario.RunOne(c, core.KindLiger, scenario.RunOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := out.Recorder
	if len(rec.Fails()) == 0 {
		t.Fatal("the run lost no device")
	}
	o := analyze.Analyze(rec, analyze.Options{}).Overlap
	if o.Hidden == 0 {
		t.Fatal("no comm ran hidden: the comparison is vacuous")
	}
	for _, d := range o.Devices {
		if got := rec.OverlapTime(d.Device); got != d.Hidden {
			t.Fatalf("gpu%d: OverlapTime %v, overlap report hidden %v", d.Device, got, d.Hidden)
		}
	}
}

// Failover traces: truncated spans and aborted collectives attribute
// to the recovery window and failed device, never panic, and the
// tiling invariant still holds.
func TestFailoverTraceRobustness(t *testing.T) {
	eng, n, rec := simNode(t, 2)
	coll := n.NewCollective(2)
	member := gpusim.KernelSpec{Name: "allreduce", Class: gpusim.Comm,
		Duration: 50 * time.Microsecond, ComputeDemand: 0.05, Coll: coll, Req: -1}
	s0 := n.NewStream(0)
	s0.Launch(member)
	s1 := n.NewStream(1)
	s1.Launch(gpusim.KernelSpec{Name: "gemm", Class: gpusim.Compute,
		Duration: 100 * time.Microsecond, ComputeDemand: 0.9, Req: -1})
	s1.Launch(member)
	// Device 1 dies mid-gemm: the gemm span truncates, the collective
	// aborts, device 0's member closes with an aborted wait span.
	eng.At(us(40), func(now simclock.Time) {
		n.FailDevice(1)
		rec.RecoveryBegin(now)
	})
	eng.At(us(70), func(now simclock.Time) {
		rec.RecoveryEnd(now)
		s0.Launch(gpusim.KernelSpec{Name: "retry", Class: gpusim.Compute,
			Duration: 30 * time.Microsecond, ComputeDemand: 0.5, Req: -1})
	})
	eng.Run()

	rep := analyze.Analyze(rec, analyze.Options{})
	assertTiling(t, rep)
	if got := rep.Gaps.Totals[analyze.GapFailed]; got == 0 {
		t.Fatal("failed device's dead time not attributed")
	}
	if got := rep.Gaps.Totals[analyze.GapRecovery]; got == 0 {
		t.Fatal("recovery window not attributed")
	}
	var sum simclock.Time
	for _, v := range rep.Gaps.Totals {
		sum += v
	}
	if sum != rep.Gaps.Idle {
		t.Fatalf("gap totals %v != idle %v — double counting", sum, rep.Gaps.Idle)
	}
}

// Identical recorder contents must produce byte-identical JSON — the
// property CI's cross-worker diff relies on.
func TestReportDeterminism(t *testing.T) {
	render := func() []byte {
		eng, n, rec := simNode(t, 2)
		coll := n.NewCollective(2)
		member := gpusim.KernelSpec{Name: "allreduce", Class: gpusim.Comm,
			Duration: 20 * time.Microsecond, ComputeDemand: 0.05, Coll: coll, Req: -1}
		s0 := n.NewStream(0)
		s0.Launch(gpusim.KernelSpec{Name: "gemm", Class: gpusim.Compute,
			Duration: 50 * time.Microsecond, ComputeDemand: 0.9, Req: -1})
		s0.Launch(member)
		n.NewStream(1).Launch(member)
		eng.Run()
		var buf bytes.Buffer
		if err := analyze.Analyze(rec, analyze.Options{}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("analysis JSON not byte-deterministic")
	}
}

// The text report carries every section -explain prints, and the gap
// marks feed the timeline's annotation lane.
func TestWriteTextAndGapMarks(t *testing.T) {
	eng, n, rec := simNode(t, 1)
	s := n.NewStream(0)
	s.Launch(gpusim.KernelSpec{Name: "gemm", Class: gpusim.Compute,
		Duration: 10 * time.Microsecond, ComputeDemand: 0.9, Req: -1})
	eng.Run()

	rep := analyze.Analyze(rec, analyze.Options{})
	var sb strings.Builder
	if err := rep.WriteText(&sb, 5); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"makespan", "critical path", "contributors",
		"idle-gap attribution", "overlap efficiency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
	marks := rep.Gaps.GapMarks()
	if len(marks) == 0 {
		t.Fatal("no gap marks for the launch gap")
	}
	if marks[0].Glyph != 'l' {
		t.Fatalf("launch gap glyph %q, want 'l'", marks[0].Glyph)
	}
	tl := trace.NewTimeline(rec, 40)
	tl.SetGaps(marks)
	sb.Reset()
	if err := tl.Render(&sb, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gaps") {
		t.Fatalf("timeline missing gap lane:\n%s", sb.String())
	}
}

// An empty recorder yields an empty but serializable report.
func TestEmptyRecorder(t *testing.T) {
	rep := analyze.Analyze(trace.NewRecorder(), analyze.Options{})
	if rep.Makespan != 0 || len(rep.CriticalPath.Segments) != 0 || len(rep.Gaps.Gaps) != 0 {
		t.Fatalf("empty recorder should produce an empty report: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteText(&buf, 3); err != nil {
		t.Fatal(err)
	}
}
