package gpusim

import (
	"testing"
	"time"

	"liger/internal/simclock"
)

// TestDrainedAndWork: a node is drained only with nothing queued or
// running and no launch backlog on a connection; the work read between
// two tallies, added to a fresh node, gives it the same counters; and
// HealthChanges counts only actual changes.
func TestDrainedAndWork(t *testing.T) {
	eng, n := testNode(t, 2)
	if !n.Drained() {
		t.Fatal("a fresh node is not drained")
	}
	var before, after Tally
	n.ReadTally(&before)
	s := n.NewStream(1)
	for range 3 {
		launch(s, "k", Compute, 10*time.Microsecond, 0.5, 0.5, nil)
	}
	if n.Drained() {
		t.Fatal("a node with queued kernels is drained")
	}
	eng.RunUntil(eng.Now() + 20*time.Microsecond)
	if n.Drained() {
		t.Fatal("a node with a running kernel is drained")
	}
	eng.Run()
	if !n.Drained() {
		t.Fatal("an idle node is not drained")
	}
	// With an issue gap longer than the launch latency, the connection
	// serializes the next issue for a while after the last delivery.
	spec := n.Spec()
	spec.Host.IssueGap = 10 * time.Microsecond
	eng2 := simclock.New()
	n2 := MustNew(eng2, spec)
	s2 := n2.NewStream(0)
	s2.Launch(KernelSpec{Name: "z", Class: Compute})
	s2.Launch(KernelSpec{Name: "z", Class: Compute})
	eng2.Run() // deliveries at 10 and 20 µs
	if eng2.Now() != 20*time.Microsecond || n2.Drained() {
		t.Fatalf("at %v: a node with a serializing connection is drained", eng2.Now())
	}
	eng2.RunUntil(25 * time.Microsecond)
	if !n2.Drained() {
		t.Fatal("a node whose backlog has cleared is not drained")
	}

	n.ReadTally(&after)
	w, ok := after.Since(before)
	if !ok || w.Kernels != 3 || w.Mask != 1<<1 || len(w.Devices) != 1 {
		t.Fatalf("work %+v, %v; want 3 kernels on device 1", w, ok)
	}
	_, fresh := testNode(t, 2)
	fresh.AddWork(w)
	if got, want := fresh.Stats(), n.Stats(); got[0] != want[0] || got[1] != want[1] || fresh.nextKernelID != n.nextKernelID {
		t.Fatalf("replayed work gives %v, want %v", got, want)
	}

	n.Device(0).SetSpeed(1)
	if n.HealthChanges() != 0 {
		t.Fatal("an unchanged speed counts as a health change")
	}
	n.Device(0).SetSpeed(0.5)
	n.Device(1).SetLinkFactor(0.5)
	n.FailDevice(1)
	if got := n.HealthChanges(); got != 3 {
		t.Fatalf("HealthChanges %d, want 3", got)
	}
}
