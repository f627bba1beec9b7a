package faults

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/trace"
)

// permutationTimeline runs a fixed kernel load under the schedule and
// returns its recorded spans, deps, rate changes and failures as text:
// the full observable simulation timeline.
func permutationTimeline(t *testing.T, s Schedule) string {
	t.Helper()
	eng, n := testNode(t, 4)
	rec := trace.NewRecorder()
	n.SetTracer(rec)
	if err := Inject(n, s); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		st := n.NewStream(d)
		for i := 0; i < 6; i++ {
			st.Launch(gpusim.KernelSpec{
				Name: fmt.Sprintf("k%d_%d", d, i), Class: gpusim.Compute,
				Duration: 80 * time.Microsecond, ComputeDemand: 0.4, MemBWDemand: 0.2,
			})
		}
	}
	coll := n.NewCollective(4)
	for d := 0; d < 4; d++ {
		n.NewStream(d).Launch(gpusim.KernelSpec{
			Name: "ar", Class: gpusim.Comm, Duration: 60 * time.Microsecond,
			ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll,
		})
	}
	eng.Run()
	var b strings.Builder
	for _, sp := range rec.Spans() {
		fmt.Fprintf(&b, "S %+v\n", sp)
	}
	for _, d := range rec.Deps() {
		fmt.Fprintf(&b, "D %+v\n", d)
	}
	for _, r := range rec.RateSamples() {
		fmt.Fprintf(&b, "R %+v\n", r)
	}
	for _, f := range rec.Fails() {
		fmt.Fprintf(&b, "F %+v\n", f)
	}
	return b.String()
}

// TestInjectIsPermutationInvariant is the determinism property the
// canonical event sort in Inject exists for: the injected timeline is a
// pure function of the event SET. Overlapping windows compose as float
// products, which are commutative but not associative — without the
// sort, the caller's event order would leak into the armed factors.
func TestInjectIsPermutationInvariant(t *testing.T) {
	events := []Event{
		{Kind: Slowdown, Device: 0, Start: 20 * time.Microsecond, Duration: 200 * time.Microsecond, Factor: 0.7},
		{Kind: Slowdown, Device: 0, Start: 60 * time.Microsecond, Duration: 90 * time.Microsecond, Factor: 0.31},
		{Kind: Slowdown, Device: 0, Start: 90 * time.Microsecond, Duration: 90 * time.Microsecond, Factor: 0.13},
		{Kind: LinkDegrade, Device: 1, Start: 10 * time.Microsecond, Duration: 300 * time.Microsecond, Factor: 0.57},
		{Kind: LinkDegrade, Device: 1, Start: 50 * time.Microsecond, Duration: 100 * time.Microsecond, Factor: 0.83},
		{Kind: CollStall, Device: 2, Start: 110 * time.Microsecond, Duration: 40 * time.Microsecond},
		{Kind: Slowdown, Device: 2, Start: 30 * time.Microsecond, Duration: 250 * time.Microsecond, Factor: 0.49},
		{Kind: DeviceFail, Device: 3, Start: 170 * time.Microsecond},
	}
	want := permutationTimeline(t, Schedule{Events: events, CollTimeout: 500 * time.Microsecond})
	if want == "" {
		t.Fatal("empty baseline timeline")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		perm := rng.Perm(len(events))
		shuffled := make([]Event, len(events))
		for i, j := range perm {
			shuffled[i] = events[j]
		}
		got := permutationTimeline(t, Schedule{Events: shuffled, CollTimeout: 500 * time.Microsecond})
		if got != want {
			t.Fatalf("permutation %v changed the timeline:\nwant:\n%s\ngot:\n%s", perm, want, got)
		}
	}
}

func TestValidateRejectsDuplicateDeviceFail(t *testing.T) {
	bad := Schedule{Events: []Event{
		{Kind: DeviceFail, Device: 2, Start: time.Millisecond},
		{Kind: Slowdown, Device: 2, Start: 0, Duration: time.Millisecond, Factor: 0.5},
		{Kind: DeviceFail, Device: 2, Start: 2 * time.Millisecond},
	}}
	if err := bad.Validate(4); err == nil {
		t.Fatal("schedule failing a device twice accepted")
	}
	ok := Schedule{Events: []Event{
		{Kind: DeviceFail, Device: 2, Start: time.Millisecond},
		{Kind: DeviceFail, Device: 3, Start: time.Millisecond},
	}}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("distinct-device failures rejected: %v", err)
	}
}
