package gpusim

import (
	"testing"
	"time"

	"liger/internal/hw"
	"liger/internal/simclock"
)

// depRecorder is a minimal Tracer capturing the causal launch records
// and spans for assertions.
type depRecorder struct {
	nopTracer
	deps  []KernelDep
	spans []KernelSpan
}

func (r *depRecorder) KernelSpan(sp KernelSpan) { r.spans = append(r.spans, sp) }
func (r *depRecorder) KernelDep(dep KernelDep)  { r.deps = append(r.deps, dep) }

func depNode(t *testing.T, gpus int) (*simclock.Engine, *Node, *depRecorder) {
	t.Helper()
	spec := hw.V100Node()
	spec.NumGPUs = gpus
	eng := simclock.New()
	n, err := New(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := &depRecorder{}
	n.SetTracer(rec)
	return eng, n, rec
}

func (r *depRecorder) depByID(id int) (KernelDep, bool) {
	for _, d := range r.deps {
		if d.ID == id {
			return d, true
		}
	}
	return KernelDep{}, false
}

// Program order: the second kernel of a stream becomes eligible when
// its predecessor finishes, and the span ids join against the deps.
func TestDepProgramOrder(t *testing.T) {
	eng, n, rec := depNode(t, 1)
	s := n.NewStream(0)
	k := KernelSpec{Name: "k", Class: Compute, Duration: 10 * time.Microsecond,
		ComputeDemand: 0.9, Req: -1}
	s.Launch(k)
	s.Launch(k)
	eng.Run()

	if len(rec.deps) != 2 || len(rec.spans) != 2 {
		t.Fatalf("want 2 deps and 2 spans, got %d/%d", len(rec.deps), len(rec.spans))
	}
	first, second := rec.deps[0], rec.deps[1]
	if first.HeadCause != CauseDelivery || first.HeadPred != -1 {
		t.Fatalf("first kernel should be delivery-caused: %+v", first)
	}
	if second.HeadCause != CauseStream || second.HeadPred != first.ID {
		t.Fatalf("second kernel should be stream-ordered behind the first: %+v", second)
	}
	if second.HeadAt != second.Admitted || second.AdmitPred != -1 {
		t.Fatalf("head and admission should coincide for an uncontended stream: %+v", second)
	}
	for i, sp := range rec.spans {
		if _, ok := rec.depByID(sp.ID); !ok {
			t.Fatalf("span %d (id %d) has no dep record", i, sp.ID)
		}
	}
}

// Launch-queue serialization: two same-instant launches on one
// connection deliver IssueGap apart, and the second records the first
// as its serialization predecessor.
func TestDepConnectionSerialization(t *testing.T) {
	eng, n, rec := depNode(t, 1)
	sa := n.NewStreamOnConnection(0, 0)
	sb := n.NewStreamOnConnection(0, 0)
	k := KernelSpec{Name: "k", Class: Compute, Duration: 10 * time.Microsecond,
		ComputeDemand: 0.1, Req: -1}
	sa.Launch(k)
	sb.Launch(k)
	eng.Run()

	if len(rec.deps) != 2 {
		t.Fatalf("want 2 deps, got %+v", rec.deps)
	}
	first, second := rec.deps[0], rec.deps[1]
	gap := n.Spec().Host.IssueGap
	if first.Serialized != 0 || first.ConnPred != -1 {
		t.Fatalf("first launch should not serialize: %+v", first)
	}
	if second.Serialized != gap || second.ConnPred != first.ID {
		t.Fatalf("second launch should serialize %v behind the first: %+v", gap, second)
	}
	if second.Delivered != first.Delivered+gap {
		t.Fatalf("delivery not issue-gap spaced: %+v vs %+v", first, second)
	}
}

// Event waits: a kernel behind a cross-stream Wait becomes eligible
// when the event fires, inheriting the firing kernel as predecessor.
func TestDepEventWait(t *testing.T) {
	eng, n, rec := depNode(t, 1)
	sa := n.NewStreamOnConnection(0, 0)
	sb := n.NewStreamOnConnection(0, 1)
	sa.Launch(KernelSpec{Name: "producer", Class: Compute,
		Duration: 50 * time.Microsecond, ComputeDemand: 0.1, Req: -1})
	ev := sa.Record()
	sb.Wait(ev)
	sb.Launch(KernelSpec{Name: "consumer", Class: Compute,
		Duration: 10 * time.Microsecond, ComputeDemand: 0.1, Req: -1})
	eng.Run()

	var producer, consumer KernelDep
	for _, d := range rec.deps {
		switch nameOf(rec, d.ID) {
		case "producer":
			producer = d
		case "consumer":
			consumer = d
		}
	}
	if consumer.HeadCause != CauseEvent || consumer.HeadPred != producer.ID {
		t.Fatalf("consumer should be event-gated behind producer: %+v", consumer)
	}
	if consumer.HeadAt <= producer.HeadAt {
		t.Fatalf("consumer became eligible before the producer ran: %+v", consumer)
	}
}

// Capacity waits: a kernel blocked by the left-over policy is admitted
// when the blocking kernel finishes, recording it as AdmitPred.
func TestDepCapacityWait(t *testing.T) {
	eng, n, rec := depNode(t, 1)
	sa := n.NewStreamOnConnection(0, 0)
	sb := n.NewStreamOnConnection(0, 1)
	k := KernelSpec{Name: "big", Class: Compute, Duration: 100 * time.Microsecond,
		ComputeDemand: 0.9, Req: -1}
	sa.Launch(k)
	sb.Launch(k)
	eng.Run()

	if len(rec.deps) != 2 {
		t.Fatalf("want 2 deps, got %+v", rec.deps)
	}
	first, second := rec.deps[0], rec.deps[1]
	if second.AdmitPred != first.ID {
		t.Fatalf("blocked kernel should name the freeing kernel: %+v", second)
	}
	if second.Admitted <= second.HeadAt {
		t.Fatalf("blocked kernel shows no capacity wait: %+v", second)
	}
	firstSpan := rec.spans[0]
	if firstSpan.ID != first.ID || second.Admitted != firstSpan.End {
		t.Fatalf("admission should coincide with the blocker's finish: %+v vs %+v", second, firstSpan)
	}
}

// Collective members carry their group id in both the dep record and
// the span, so membership edges reconstruct offline.
func TestDepCollectiveMembership(t *testing.T) {
	eng, n, rec := depNode(t, 2)
	coll := n.NewCollective(2)
	for d := 0; d < 2; d++ {
		n.NewStream(d).Launch(KernelSpec{Name: "ar", Class: Comm,
			Duration: 20 * time.Microsecond, ComputeDemand: 0.05, MemBWDemand: 0.3,
			Coll: coll, Req: -1})
	}
	eng.Run()

	if len(rec.deps) != 2 {
		t.Fatalf("want 2 member deps, got %+v", rec.deps)
	}
	for _, d := range rec.deps {
		if d.Coll != coll.ID() {
			t.Fatalf("member dep missing collective id: %+v", d)
		}
	}
}

// Kernels cancelled before admission (delivered to a failed device)
// emit a truncated span but no dep record.
func TestDepNoneForUnadmittedCancel(t *testing.T) {
	eng, n, rec := depNode(t, 1)
	s := n.NewStream(0)
	k := KernelSpec{Name: "k", Class: Compute, Duration: 100 * time.Microsecond,
		ComputeDemand: 0.9, Req: -1}
	s.Launch(k)
	s.Launch(k)
	eng.At(40*time.Microsecond, func(simclock.Time) { n.FailDevice(0) })
	eng.Run()

	if len(rec.spans) != 2 {
		t.Fatalf("want both spans (one truncated, one zero-length): %+v", rec.spans)
	}
	if len(rec.deps) != 1 {
		t.Fatalf("only the admitted kernel should have a dep: %+v", rec.deps)
	}
	if rec.deps[0].ID != rec.spans[0].ID {
		t.Fatalf("dep does not match the admitted span: %+v vs %+v", rec.deps, rec.spans)
	}
}

func nameOf(rec *depRecorder, id int) string {
	for _, sp := range rec.spans {
		if sp.ID == id {
			return sp.Name
		}
	}
	return ""
}
