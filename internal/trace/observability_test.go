package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/simclock"
)

func obsNode(t testing.TB, gpus int) (*simclock.Engine, *gpusim.Node, *Recorder) {
	t.Helper()
	spec := hw.V100Node()
	spec.NumGPUs = gpus
	eng := simclock.New()
	n, err := gpusim.New(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	n.SetTracer(rec)
	return eng, n, rec
}

func us(n int) simclock.Time { return simclock.Time(n) * simclock.Time(time.Microsecond) }

// addSpan records a finished local kernel that carries no scheduling
// metadata, with the next kernel id.
func addSpan(rec *Recorder, dev int, name string, class gpusim.KernelClass, start, end simclock.Time) {
	rec.KernelSpan(gpusim.KernelSpan{ID: len(rec.Spans()), Device: dev, Name: name, Class: class,
		Start: start, End: end, Batch: -1, Req: -1, Coll: -1})
}

// Regression (bugfix): kernels in flight at a DeviceFail used to
// vanish from the recorder — the running kernel's end was emitted
// unflagged and the queued kernel behind it got no event at all. Both
// must now surface as truncated spans ending at the failure instant.
func TestTruncatedSpansOnDeviceFail(t *testing.T) {
	eng, n, rec := obsNode(t, 1)
	s := n.NewStream(0)
	// High demand so "b" queues behind "a" instead of running alongside.
	s.Launch(gpusim.KernelSpec{Name: "a", Class: gpusim.Compute,
		Duration: 100 * time.Microsecond, ComputeDemand: 0.9, Req: -1})
	s.Launch(gpusim.KernelSpec{Name: "b", Class: gpusim.Compute,
		Duration: 100 * time.Microsecond, ComputeDemand: 0.9, Req: -1})
	eng.At(us(40), func(simclock.Time) { n.FailDevice(0) })
	eng.Run()

	byName := map[string]Span{}
	for _, sp := range rec.Spans() {
		byName[sp.Name] = sp
	}
	if len(byName) != 2 {
		t.Fatalf("recorded %d distinct spans, want both launched kernels: %+v", len(byName), rec.Spans())
	}
	a, b := byName["a"], byName["b"]
	if a.Cancelled != gpusim.CancelDeviceFail || a.End != us(40) {
		t.Fatalf("running kernel span not truncated at failure: %+v", a)
	}
	if b.Cancelled != gpusim.CancelDeviceFail || b.Start != us(40) || b.End != us(40) {
		t.Fatalf("queued kernel should leave a zero-length truncated span: %+v", b)
	}
	if len(rec.Fails()) != 1 || rec.Fails()[0].Device != 0 || rec.Fails()[0].At != us(40) {
		t.Fatalf("device failure not recorded: %+v", rec.Fails())
	}
}

// A watchdog abort must flag every member span and close the pending
// rendezvous waits as aborted.
func TestCollectiveAbortFlagsSpansAndWaits(t *testing.T) {
	eng, n, rec := obsNode(t, 2)
	coll := n.NewCollective(2)
	coll.SetTimeout(30 * time.Microsecond)
	// Only one member ever launches: the rendezvous can never complete.
	n.NewStream(0).Launch(gpusim.KernelSpec{Name: "ar", Class: gpusim.Comm,
		Duration: 10 * time.Microsecond, ComputeDemand: 0.05, MemBWDemand: 0.3,
		Coll: coll, Req: -1})
	eng.Run()

	if !coll.Aborted() {
		t.Fatal("collective did not abort")
	}
	if len(rec.Spans()) != 1 || rec.Spans()[0].Cancelled != gpusim.CancelCollectiveAbort {
		t.Fatalf("member span not flagged aborted: %+v", rec.Spans())
	}
	waits := rec.Waits()
	if len(waits) != 1 || !waits[0].Aborted || waits[0].Coll != coll.ID() {
		t.Fatalf("rendezvous wait not closed as aborted: %+v", waits)
	}
	if c := rec.Counts(); c.Enqueued != 1 || c.Aborted != 1 || c.Started != 0 {
		t.Fatalf("collective counts wrong: %+v", c)
	}
}

// A staggered rendezvous leaves a wait span on the early rank covering
// the time it held its device spinning on the late one.
func TestRendezvousWaitSpans(t *testing.T) {
	eng, n, rec := obsNode(t, 2)
	coll := n.NewCollective(2)
	member := func(dev int) gpusim.KernelSpec {
		return gpusim.KernelSpec{Name: "ar", Class: gpusim.Comm,
			Duration: 20 * time.Microsecond, ComputeDemand: 0.05, MemBWDemand: 0.3,
			Coll: coll, Req: -1}
	}
	n.NewStream(0).Launch(member(0))
	// Device 1's member queues behind a long compute kernel.
	s1 := n.NewStream(1)
	s1.Launch(gpusim.KernelSpec{Name: "c", Class: gpusim.Compute,
		Duration: 80 * time.Microsecond, ComputeDemand: 0.9, Req: -1})
	s1.Launch(member(1))
	eng.Run()

	waits := rec.Waits()
	if len(waits) != 2 {
		t.Fatalf("want one wait span per member, got %+v", waits)
	}
	var early, late WaitSpan
	for _, w := range waits {
		if w.Device == 0 {
			early = w
		} else {
			late = w
		}
	}
	if early.Aborted || early.End-early.Start < us(50) {
		t.Fatalf("early rank's wait should span the straggler's compute: %+v", early)
	}
	if early.End != late.End {
		t.Fatalf("waits must close together at transfer start: %+v vs %+v", early, late)
	}
	if c := rec.Counts(); c.Started != 1 || c.Finished != 1 || c.Aborted != 0 {
		t.Fatalf("collective counts wrong: %+v", c)
	}
}

// Fault-model rate changes and launch-queue depths must land in the
// recorder, with same-instant queue samples coalesced.
func TestFaultRatesAndQueueDepth(t *testing.T) {
	eng, n, rec := obsNode(t, 2)
	s := n.NewStream(0)
	s.Launch(gpusim.KernelSpec{Name: "k1", Class: gpusim.Compute,
		Duration: 10 * time.Microsecond, ComputeDemand: 0.4, Req: -1})
	s.Launch(gpusim.KernelSpec{Name: "k2", Class: gpusim.Compute,
		Duration: 10 * time.Microsecond, ComputeDemand: 0.4, Req: -1})
	eng.At(us(5), func(simclock.Time) { n.Device(0).SetSpeed(0.5) })
	eng.At(us(15), func(simclock.Time) { n.Device(0).SetLinkFactor(0.25) })
	eng.Run()

	rs := rec.RateSamples()
	if len(rs) != 2 {
		t.Fatalf("want 2 rate samples, got %+v", rs)
	}
	if rs[0].Speed != 0.5 || rs[0].Link != 1 || rs[0].At != us(5) {
		t.Fatalf("slowdown sample wrong: %+v", rs[0])
	}
	if rs[1].Speed != 0.5 || rs[1].Link != 0.25 {
		t.Fatalf("link sample wrong: %+v", rs[1])
	}
	qs := rec.QueueSamples()
	if len(qs) == 0 {
		t.Fatal("no queue-depth samples")
	}
	// Both launches issue at t=0: coalescing leaves one sample there.
	if qs[0].At != 0 || qs[0].Depth != 2 {
		t.Fatalf("same-instant samples not coalesced to last depth: %+v", qs[0])
	}
	if last := qs[len(qs)-1]; last.Depth != 0 {
		t.Fatalf("final queue depth %d, want 0 after drain: %+v", last.Depth, qs)
	}
}

// Regression (bugfix): WriteChromeTrace sorted with a non-stable sort
// on TS alone, so equal-timestamp events could serialize in any order.
// Events inserted in descending (PID, Name) order at one timestamp
// must come out in the canonical (TS, PID, TID, Name) order, and
// repeated writes must be byte-identical.
func TestChromeTraceStableOrder(t *testing.T) {
	rec := NewRecorder()
	for dev := 3; dev >= 0; dev-- {
		addSpan(rec, dev, "z", gpusim.Compute, us(10), us(20))
		addSpan(rec, dev, "a", gpusim.Compute, us(10), us(20))
	}
	var first, second bytes.Buffer
	if err := rec.WriteChromeTrace(&first); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("repeated writes differ")
	}
	var events []struct {
		Name  string  `json:"name"`
		Phase string  `json:"ph"`
		TS    float64 `json:"ts"`
		PID   int     `json:"pid"`
	}
	if err := json.Unmarshal(first.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		pid  int
		name string
	}
	for _, e := range events {
		if e.Phase == "X" {
			spans = append(spans, struct {
				pid  int
				name string
			}{e.PID, e.Name})
		}
	}
	if len(spans) != 8 {
		t.Fatalf("%d span events", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		prev, cur := spans[i-1], spans[i]
		if cur.pid < prev.pid || (cur.pid == prev.pid && cur.name < prev.name) {
			t.Fatalf("equal-TS events out of canonical order at %d: %+v", i, spans)
		}
	}
}

// The trace must parse as valid Chrome JSON and include the new event
// families after a failure run: truncated spans, a device-fail
// instant, wait spans, and counter samples.
func TestChromeTraceRendersObservabilityEvents(t *testing.T) {
	eng, n, rec := obsNode(t, 2)
	coll := n.NewCollective(2)
	coll.SetTimeout(50 * time.Microsecond)
	for d := 0; d < 2; d++ {
		n.NewStream(d).Launch(gpusim.KernelSpec{Name: "ar", Class: gpusim.Comm,
			Duration: 40 * time.Microsecond, ComputeDemand: 0.05, MemBWDemand: 0.3,
			Coll: coll, Req: -1})
	}
	eng.At(us(10), func(simclock.Time) { n.FailDevice(1) })
	eng.Run()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range events {
		seen[e["name"].(string)+"/"+e["ph"].(string)] = true
		if args, ok := e["args"].(map[string]any); ok && args["cancelled"] != nil {
			seen["cancelled"] = true
		}
	}
	for _, want := range []string{"device-fail/i", "rendezvous-wait/X", "coll-enqueue/i",
		"queue/C", "running/C", "process_name/M", "cancelled"} {
		if !seen[want] {
			t.Fatalf("trace missing %s; events: %v", want, seen)
		}
	}
}

func TestReqBreakdown(t *testing.T) {
	rec := NewRecorder()
	span := func(req int, class gpusim.KernelClass, start, end int, cancelled string) {
		rec.KernelSpan(gpusim.KernelSpan{Device: 0, Name: "k", Class: class,
			Start: us(start), End: us(end), Batch: 0, Req: req, Coll: -1, Cancelled: cancelled})
	}
	// Request 5: compute [0,100], overlapping wait [90,100], comm
	// [100,150]. No gaps.
	span(5, gpusim.Compute, 0, 100, "")
	rec.RendezvousBegin(7, 0, 0, 5, us(90))
	rec.TransferStart(7, us(100))
	span(5, gpusim.Comm, 100, 150, "")
	// Request 6: two compute bursts with a 10µs stall, one cancelled.
	span(6, gpusim.Compute, 0, 10, "")
	span(6, gpusim.Compute, 20, 30, gpusim.CancelDeviceFail)
	// Untagged work must not leak into any request.
	span(-1, gpusim.Compute, 0, 1000, "")

	br := rec.ReqBreakdown()
	if len(br) != 2 {
		t.Fatalf("breakdown for %d requests, want 2: %+v", len(br), br)
	}
	r5 := br[5]
	if r5.Compute != us(100) || r5.Comm != us(60) || r5.Stall != 0 || r5.Kernels != 2 || r5.Cancelled != 0 {
		t.Fatalf("req 5 breakdown wrong: %+v", r5)
	}
	r6 := br[6]
	if r6.Compute != us(20) || r6.Comm != 0 || r6.Stall != us(10) || r6.Kernels != 2 || r6.Cancelled != 1 {
		t.Fatalf("req 6 breakdown wrong: %+v", r6)
	}
}

// The recorder captures dependency records and joins them to spans via
// the kernel id.
func TestRecorderCapturesDeps(t *testing.T) {
	eng, n, rec := obsNode(t, 1)
	s := n.NewStream(0)
	k := gpusim.KernelSpec{Name: "k", Class: gpusim.Compute,
		Duration: 10 * time.Microsecond, ComputeDemand: 0.9, Req: -1}
	s.Launch(k)
	s.Launch(k)
	eng.Run()

	deps := rec.Deps()
	spans := rec.Spans()
	if len(deps) != 2 || len(spans) != 2 {
		t.Fatalf("want 2 deps and 2 spans, got %d/%d", len(deps), len(spans))
	}
	ids := map[int]bool{}
	for _, sp := range spans {
		if sp.ID < 0 {
			t.Fatalf("span missing kernel id: %+v", sp)
		}
		ids[sp.ID] = true
	}
	for _, d := range deps {
		if !ids[d.ID] {
			t.Fatalf("dep %+v has no matching span", d)
		}
	}
	if deps[1].HeadCause != gpusim.CauseStream || deps[1].HeadPred != deps[0].ID {
		t.Fatalf("second kernel should be stream-ordered behind the first: %+v", deps[1])
	}

	rec.Reset()
	if len(rec.Deps()) != 0 {
		t.Fatal("Reset did not clear deps")
	}
}
