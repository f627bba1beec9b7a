package faults

import (
	"testing"
	"time"

	"liger/internal/hw"
	"liger/internal/simclock"

	"liger/internal/gpusim"
)

func testNode(t *testing.T, gpus int) (*simclock.Engine, *gpusim.Node) {
	t.Helper()
	spec := hw.V100Node()
	spec.NumGPUs = gpus
	spec.Host.LaunchLatency = 5 * time.Microsecond
	spec.Host.IssueGap = 1 * time.Microsecond
	eng := simclock.New()
	n, err := gpusim.New(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

func TestValidateBounds(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
	}{
		{"device out of range", Schedule{Events: []Event{{Kind: Slowdown, Device: 4, Factor: 0.5}}}},
		{"negative device", Schedule{Events: []Event{{Kind: Slowdown, Device: -1, Factor: 0.5}}}},
		{"negative start", Schedule{Events: []Event{{Kind: Slowdown, Start: -time.Second, Factor: 0.5}}}},
		{"zero factor", Schedule{Events: []Event{{Kind: Slowdown, Factor: 0}}}},
		{"factor above 1", Schedule{Events: []Event{{Kind: LinkDegrade, Factor: 1.2}}}},
		{"negative timeout", Schedule{CollTimeout: -time.Second}},
	}
	for _, c := range cases {
		if err := c.s.Validate(4); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	ok := Schedule{
		CollTimeout: time.Millisecond,
		Events: []Event{
			{Kind: Slowdown, Device: 3, Start: time.Millisecond, Duration: time.Millisecond, Factor: 0.5},
			{Kind: DeviceDrop, Device: 0, Start: 0, Duration: time.Millisecond},
		},
	}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestInjectAppliesAndReverts(t *testing.T) {
	eng, n := testNode(t, 2)
	s := Schedule{Events: []Event{{
		Kind: Slowdown, Device: 1,
		Start: 100 * time.Microsecond, Duration: 200 * time.Microsecond, Factor: 0.5,
	}}}
	if err := Inject(n, s); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(50 * time.Microsecond)
	if got := n.Device(1).Speed(); got != 1 {
		t.Fatalf("speed %v before window", got)
	}
	eng.RunUntil(150 * time.Microsecond)
	if got := n.Device(1).Speed(); got != 0.5 {
		t.Fatalf("speed %v inside window, want 0.5", got)
	}
	eng.RunUntil(400 * time.Microsecond)
	if got := n.Device(1).Speed(); got != 1 {
		t.Fatalf("speed %v after window, want restored 1", got)
	}
}

func TestInjectOverlappingWindowsCompose(t *testing.T) {
	eng, n := testNode(t, 1)
	s := Schedule{Events: []Event{
		{Kind: Slowdown, Device: 0, Start: 0, Duration: 300 * time.Microsecond, Factor: 0.5},
		{Kind: Slowdown, Device: 0, Start: 100 * time.Microsecond, Duration: 100 * time.Microsecond, Factor: 0.8},
	}}
	if err := Inject(n, s); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(50 * time.Microsecond)
	if got := n.Device(0).Speed(); got != 0.5 {
		t.Fatalf("speed %v in first window, want 0.5", got)
	}
	eng.RunUntil(150 * time.Microsecond)
	if got := n.Device(0).Speed(); got != 0.4 {
		t.Fatalf("speed %v in overlap, want 0.4", got)
	}
	eng.RunUntil(250 * time.Microsecond)
	if got := n.Device(0).Speed(); got != 0.5 {
		t.Fatalf("speed %v after inner revert, want 0.5", got)
	}
	eng.RunUntil(350 * time.Microsecond)
	if got := n.Device(0).Speed(); got != 1 {
		t.Fatalf("speed %v after both, want 1", got)
	}
}

func TestInjectChannelsAreIndependent(t *testing.T) {
	eng, n := testNode(t, 1)
	s := Schedule{Events: []Event{
		{Kind: Slowdown, Device: 0, Start: 0, Duration: 100 * time.Microsecond, Factor: 0.7},
		{Kind: LinkDegrade, Device: 0, Start: 0, Duration: 200 * time.Microsecond, Factor: 0.3},
	}}
	if err := Inject(n, s); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(50 * time.Microsecond)
	if sp, lf := n.Device(0).Speed(), n.Device(0).LinkFactor(); sp != 0.7 || lf != 0.3 {
		t.Fatalf("speed %v / link %v, want 0.7 / 0.3", sp, lf)
	}
	eng.RunUntil(150 * time.Microsecond)
	if sp, lf := n.Device(0).Speed(), n.Device(0).LinkFactor(); sp != 1 || lf != 0.3 {
		t.Fatalf("speed %v / link %v after speed revert, want 1 / 0.3", sp, lf)
	}
}

func TestStaticIsDegenerate(t *testing.T) {
	eng, n := testNode(t, 4)
	if err := Inject(n, Schedule{Events: []Event{{Kind: Slowdown, Device: 2, Factor: 0.6}}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	if got := n.Device(2).Speed(); got != 0.6 {
		t.Fatalf("static straggler speed %v, want 0.6 with no revert", got)
	}
}

func TestInjectArmsCollTimeout(t *testing.T) {
	_, n := testNode(t, 2)
	if err := Inject(n, Schedule{CollTimeout: 42 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if got := n.CollectiveTimeout(); got != 42*time.Microsecond {
		t.Fatalf("collective timeout %v not armed", got)
	}
}

func TestInjectRejectsOutOfRange(t *testing.T) {
	_, n := testNode(t, 2)
	if err := Inject(n, Schedule{Events: []Event{{Kind: Slowdown, Device: 5, Factor: 0.5}}}); err == nil {
		t.Fatal("out-of-range device accepted")
	}
}
