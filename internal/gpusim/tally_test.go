package gpusim

import (
	"testing"
	"time"

	"liger/internal/simclock"
)

// TestDrainedAndWork: a node is drained only with nothing queued or
// running and no launch backlog on a connection, and the work read
// between two tallies, added to a fresh node, gives it the same
// counters.
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
	if after.Kernels-before.Kernels != 3 || before.Devices[1] != (DeviceStats{}) {
		t.Fatalf("tallies %+v and %+v; want 3 kernels on device 1", before, after)
	}
	w := Work{Kernels: 3, Mask: 1 << 1, Devices: []DeviceStats{after.Devices[1]}}
	_, fresh := testNode(t, 2)
	fresh.AddWork(w)
	if got, want := fresh.Stats(), n.Stats(); got[0] != want[0] || got[1] != want[1] || fresh.nextKernelID != n.nextKernelID {
		t.Fatalf("replayed work gives %v, want %v", got, want)
	}
}
