package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testScenario returns a compilable baseline on the tiny model (fast).
func testScenario() *Scenario {
	return &Scenario{
		Name:  "t",
		Model: "tiny",
		Node:  NodeSpec{Preset: "v100", GPUs: 4},
		Workload: Workload{
			Batches: 10,
			Rate:    RateSpec{relative: 0.5},
			Seed:    1,
		},
	}
}

func TestCompileDefaults(t *testing.T) {
	c, err := Compile(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace.BatchSize != 2 || c.Trace.MinSeq != 16 || c.Trace.MaxSeq != 128 {
		t.Errorf("trace defaults = %+v", c.Trace)
	}
	if c.Rate <= 0 || c.Solo <= 0 || c.Horizon <= 0 {
		t.Errorf("rate %v, solo %v, horizon %v", c.Rate, c.Solo, c.Horizon)
	}
	if len(c.Kinds) != 3 {
		t.Errorf("kinds = %v", c.Kinds)
	}
}

func TestCompileZeroDurationWindow(t *testing.T) {
	sc := testScenario()
	sc.Chaos.Events = []ChaosEvent{{
		Kind: "slowdown", Device: 0, Factor: 0.5,
		Start:    TimeSpec{kind: timeFrac, val: 0.2},
		Duration: TimeSpec{kind: timeFrac, val: 0},
	}}
	// A present-but-zero duration must be rejected with the event index,
	// kind, and range — not silently compiled into a no-op fault.
	_, err := Compile(sc)
	if err == nil || !strings.Contains(err.Error(), "chaos.events[0] (slowdown dev0): zero-duration window") {
		t.Errorf("err = %v", err)
	}
}

func TestCompileOmittedDurationPersists(t *testing.T) {
	sc := testScenario()
	sc.Chaos.Events = []ChaosEvent{{
		Kind: "slowdown", Device: 0, Factor: 0.5,
		Start: TimeSpec{kind: timeFrac, val: 0.2},
	}}
	c, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Schedule.Events) != 1 || c.Schedule.Events[0].Duration != 0 {
		t.Errorf("schedule = %+v", c.Schedule.Events)
	}
}

func TestCompileOverlappingWindows(t *testing.T) {
	sc := testScenario()
	sc.Chaos.Events = []ChaosEvent{
		{Kind: "slowdown", Device: 1, Factor: 0.5,
			Start:    TimeSpec{kind: timeFrac, val: 0.1},
			Duration: TimeSpec{kind: timeFrac, val: 0.4}},
		{Kind: "slowdown", Device: 1, Factor: 0.7,
			Start:    TimeSpec{kind: timeFrac, val: 0.3},
			Duration: TimeSpec{kind: timeFrac, val: 0.2}},
	}
	_, err := Compile(sc)
	if err == nil || !strings.Contains(err.Error(), "chaos.events[1] (slowdown dev1") ||
		!strings.Contains(err.Error(), "overlaps chaos.events[0]") {
		t.Errorf("err = %v", err)
	}
	// Same window shapes on different devices (or kinds) are fine.
	sc.Chaos.Events[1].Device = 2
	if _, err := Compile(sc); err != nil {
		t.Errorf("different devices: %v", err)
	}
	sc.Chaos.Events[1].Device = 1
	sc.Chaos.Events[1].Kind = "link-degrade"
	if _, err := Compile(sc); err != nil {
		t.Errorf("different kinds: %v", err)
	}
}

func TestCompileOpenEndedOverlap(t *testing.T) {
	sc := testScenario()
	sc.Chaos.Events = []ChaosEvent{
		{Kind: "slowdown", Device: 1, Factor: 0.5,
			Start: TimeSpec{kind: timeFrac, val: 0.1}}, // persists to end
		{Kind: "slowdown", Device: 1, Factor: 0.7,
			Start:    TimeSpec{kind: timeFrac, val: 0.6},
			Duration: TimeSpec{kind: timeFrac, val: 0.1}},
	}
	if _, err := Compile(sc); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("err = %v", err)
	}
}

func TestCompileAllDevicesFailed(t *testing.T) {
	sc := testScenario()
	sc.Node.GPUs = 2
	sc.Chaos.Events = []ChaosEvent{
		{Kind: "device-fail", Device: 0, Start: TimeSpec{kind: timeFrac, val: 0.2}},
		{Kind: "device-fail", Device: 1, Start: TimeSpec{kind: timeFrac, val: 0.4}},
	}
	if _, err := Compile(sc); err == nil || !strings.Contains(err.Error(), "nothing would survive") {
		t.Errorf("err = %v", err)
	}
}

func TestCompileRandomDeterministic(t *testing.T) {
	build := func() *Scenario {
		sc := testScenario()
		sc.Chaos.Random = []RandomChaos{{
			Kind: "slowdown", Count: 3, Factor: 0.5, Seed: 7,
			Duration: TimeSpec{kind: timeFrac, val: 0.05},
		}}
		return sc
	}
	a, err := Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Errorf("recompiles differ:\n%v\n%v", a.Schedule, b.Schedule)
	}
	if len(a.Schedule.Events) != 3 {
		t.Errorf("got %d events", len(a.Schedule.Events))
	}
}

func TestCompileRandomStreamsIndependent(t *testing.T) {
	gen := func(seed int64) RandomChaos {
		return RandomChaos{
			Kind: "slowdown", Count: 2, Factor: 0.5, Seed: seed,
			Duration: TimeSpec{kind: timeFrac, val: 0.05},
		}
	}
	solo := testScenario()
	solo.Chaos.Random = []RandomChaos{gen(7)}
	a, err := Compile(solo)
	if err != nil {
		t.Fatal(err)
	}
	// Appending a second generator must not perturb the first's events.
	both := testScenario()
	both.Chaos.Random = []RandomChaos{gen(7), gen(9)}
	b, err := Compile(both)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Schedule.Events, b.Schedule.Events[:2]) {
		t.Errorf("first generator perturbed:\n%v\n%v", a.Schedule.Events, b.Schedule.Events[:2])
	}
}

func TestCompileRandomDeviceFailLeavesSurvivor(t *testing.T) {
	sc := testScenario()
	sc.Chaos.Random = []RandomChaos{{Kind: "device-fail", Count: 4, Seed: 1}}
	if _, err := Compile(sc); err == nil || !strings.Contains(err.Error(), "no survivor") {
		t.Errorf("err = %v", err)
	}
	sc.Chaos.Random[0].Count = 2
	c, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	devs := map[int]bool{}
	for _, e := range c.Schedule.Events {
		if devs[e.Device] {
			t.Errorf("device %d failed twice", e.Device)
		}
		devs[e.Device] = true
	}
}

func TestCompileAssertionUnknownRuntime(t *testing.T) {
	sc := testScenario()
	sc.Runtimes = []string{"liger", "intra"}
	sc.Assert = []string{"interth.goodput >= 1"}
	if _, err := Compile(sc); err == nil || !strings.Contains(err.Error(), "does not run") {
		t.Errorf("err = %v", err)
	}
}

func TestCompileDurationDerivesBatches(t *testing.T) {
	sc := testScenario()
	sc.Workload.Batches = 0
	sc.Workload.Duration = 1000 * 1000 * 1000 // 1s
	c, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace.Batches <= 0 {
		t.Errorf("batches = %d", c.Trace.Batches)
	}
}

// A finite rate can still put the horizon, batches/rate, beyond what
// time.Duration holds (or below a nanosecond); Compile rejects it
// instead of handing the run a clock that overflows. The first case is
// the corpus baseline at rate 1e-300, which used to compile and then
// panic scheduling its first arrival.
func TestCompileRejectsUnrepresentableHorizon(t *testing.T) {
	base, err := Load(filepath.Join("..", "..", "scenarios", "healthy-baseline.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	base.Workload.Batches, base.Workload.Rate = 4, RateSpec{abs: 1e-300}
	if _, err := Compile(base); err == nil || !strings.HasPrefix(err.Error(), "workload.rate: resolves to 1e-300 batches/s") {
		t.Errorf("healthy-baseline at rate 1e-300: err = %v", err)
	}
	for _, tc := range []struct{ workload, want string }{
		{"  batches: 5\n  rate: 1e-300\n", "workload.rate: resolves to 1e-300 batches/s"},
		{"  batches: 5\n  rate: 1e-300\n  mode: continuous\n", "workload.rate: resolves to 1e-300 sequences/s"},
		{"  batches: 5\n  rate: 1e300\n", "workload.rate: resolves to 1e+300 batches/s"},
		{"  duration: 1s\n  rate: 1e300\n", "workload.duration 1s at rate 1e+300/s yields 1e+300 arrivals"},
	} {
		sc, err := Parse([]byte("model: tiny\nworkload:\n"+tc.workload), "t")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(sc); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want prefix %q", tc.workload, err, tc.want)
		}
	}
}
