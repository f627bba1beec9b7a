package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/scenario"
)

// TestChaosOutputSerialParallelIdentical pins the chaos experiment's
// headline promise: a seeded run is byte-identical across invocations
// and across sweep-executor worker counts — fault windows included.
func TestChaosOutputSerialParallelIdentical(t *testing.T) {
	cfg := RunConfig{Batches: 25, Quick: true, Seed: 5, Parallel: 0, StragglerDevice: 2}
	var first, again, par bytes.Buffer
	if err := RunChaos(cfg, &first); err != nil {
		t.Fatal(err)
	}
	if err := RunChaos(cfg, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("two seeded chaos runs differ")
	}
	cfg.Parallel = 4
	if err := RunChaos(cfg, &par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), par.Bytes()) {
		t.Fatalf("chaos output differs between -parallel 0 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			first.String(), par.String())
	}
	// The report must cover the fault-free baseline plus every preset
	// fault scenario.
	out := first.String()
	var want []string
	for _, pr := range chaosPresets() {
		want = append(want, pr.name)
	}
	if want[0] != "none" || len(want) < 4 {
		t.Fatalf("only %d scenarios; need a baseline plus at least 3 fault scenarios", len(want))
	}
	for _, name := range want {
		if !strings.Contains(out, name) {
			t.Errorf("scenario %q missing from the report", name)
		}
	}
}

// TestChaosLigerDegradesNoWorseThanIntraOp is the robustness acceptance
// check: under the transient-straggler scenario, Liger's goodput must
// not degrade below the intra-operator baseline's — interleaving plus
// degradation-aware re-planning has to at least match plain tensor
// parallelism when a device throttles.
func TestChaosLigerDegradesNoWorseThanIntraOp(t *testing.T) {
	cfg := RunConfig{Batches: 40, Seed: 1, StragglerDevice: 2}
	pr, err := chaosPresetByName("transient-straggler")
	if err != nil {
		t.Fatal(err)
	}
	lig, err := serveScenario(chaosScenario(pr, cfg), core.KindLiger, cfg)
	if err != nil {
		t.Fatal(err)
	}
	intra, err := serveScenario(chaosScenario(pr, cfg), core.KindIntraOp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lig.PolicyGoodput() < intra.PolicyGoodput() {
		t.Fatalf("Liger goodput %.2f below Intra-Op %.2f under transient-straggler",
			lig.PolicyGoodput(), intra.PolicyGoodput())
	}
}

// TestStragglerDeviceBoundsChecked pins the parameterized straggler
// index: out-of-range devices are rejected, not silently clamped.
func TestStragglerDeviceBoundsChecked(t *testing.T) {
	for _, dev := range []int{-1, 4, 99} {
		cfg := RunConfig{Batches: 5, Quick: true, Seed: 1, StragglerDevice: dev}
		var buf bytes.Buffer
		if err := RunStraggler(cfg, &buf); err == nil {
			t.Errorf("straggler device %d accepted on a 4-GPU node", dev)
		}
	}
}

// TestStragglerDeviceParameterized runs the experiment on a
// non-default device and checks the report names it.
func TestStragglerDeviceParameterized(t *testing.T) {
	if testing.Short() {
		t.Skip("full straggler sweep; skipped with -short")
	}
	cfg := RunConfig{Batches: 10, Quick: true, Seed: 1, StragglerDevice: 1}
	var buf bytes.Buffer
	if err := RunStraggler(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gpu1 speed") {
		t.Fatalf("report does not name the straggler device:\n%s", buf.String())
	}
}

// chaosPresetByName finds a chaos preset.
func chaosPresetByName(name string) (chaosPreset, error) {
	for _, pr := range chaosPresets() {
		if pr.name == name {
			return pr, nil
		}
	}
	return chaosPreset{}, fmt.Errorf("unknown chaos preset %q", name)
}

// TestChaosPresetByName pins the preset lookup: a known name resolves,
// an unknown one does not.
func TestChaosPresetByName(t *testing.T) {
	if _, err := chaosPresetByName("transient-straggler"); err != nil {
		t.Fatal(err)
	}
	if _, err := chaosPresetByName("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestChaosPresetsDeterministic checks every fault preset on its
// compiled schedule: the same seed yields the same plan, the plan is
// valid and non-empty, every window but a permanent failure restores
// before the horizon, and the seed varies the faulty device.
func TestChaosPresetsDeterministic(t *testing.T) {
	cfg := RunConfig{Batches: 40, Seed: 7}
	schedule := func(pr chaosPreset, cfg RunConfig) (*scenario.Compiled, error) {
		return compile(chaosScenario(pr, cfg))
	}
	for _, pr := range chaosPresets()[1:] {
		a, err := schedule(pr, cfg)
		if err != nil {
			t.Errorf("%s: invalid plan: %v", pr.name, err)
			continue
		}
		b, err := schedule(pr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Schedule, b.Schedule) {
			t.Errorf("%s: same seed produced different schedules:\n%+v\n%+v", pr.name, a.Schedule, b.Schedule)
		}
		if err := a.Schedule.Validate(a.Node.NumGPUs); err != nil {
			t.Errorf("%s: invalid schedule: %v", pr.name, err)
		}
		if len(a.Schedule.Events) == 0 {
			t.Errorf("%s: empty schedule", pr.name)
		}
		for _, e := range a.Schedule.Events {
			if e.Kind == faults.DeviceFail {
				// Permanent by design: no window to restore.
				if e.Start > a.Horizon {
					t.Errorf("%s: failure %v past horizon", pr.name, e)
				}
				continue
			}
			if e.Duration <= 0 {
				t.Errorf("%s: unbounded window %v (chaos presets must restore)", pr.name, e)
			}
			if e.Start+e.Duration > a.Horizon {
				t.Errorf("%s: window %v exceeds horizon", pr.name, e)
			}
		}
	}
	// Different seeds must be able to pick different devices.
	pr := chaosPresets()[1]
	devs := map[int]bool{}
	for seed := int64(0); seed < 16; seed++ {
		cfg.Seed = seed
		c, err := schedule(pr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		devs[c.Schedule.Events[0].Device] = true
	}
	if len(devs) < 2 {
		t.Error("seed does not vary the faulty device")
	}
}

// TestChaosCommittedArtifact pins the committed repo-root
// BENCH_robustness.json: it must parse, hold a row per (scenario,
// runtime) of the sweep, and show Liger's goodput at or above
// Intra-Op's under transient-straggler.
func TestChaosCommittedArtifact(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", RobustnessJSONName))
	if err != nil {
		t.Fatalf("committed artifact missing (regenerate with `make chaos`): %v", err)
	}
	var rep chaosReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	presets := chaosPresets()
	if want := len(presets) * len(headlineKinds); len(rep.Rows) != want {
		t.Fatalf("committed artifact has %d rows, want %d", len(rep.Rows), want)
	}
	goodput := make(map[string]float64)
	for i, row := range rep.Rows {
		if want := presets[i/len(headlineKinds)].name; row.Scenario != want {
			t.Fatalf("row %d is scenario %q, want %q", i, row.Scenario, want)
		}
		if row.Scenario == "transient-straggler" {
			goodput[row.Runtime] = row.Goodput
		}
	}
	if goodput["Liger"] < goodput["Intra-Op"] {
		t.Errorf("committed artifact: Liger goodput %.2f below Intra-Op's %.2f under transient-straggler",
			goodput["Liger"], goodput["Intra-Op"])
	}
}
