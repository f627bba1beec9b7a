package tune

import (
	"strings"
	"testing"

	"liger/internal/core"
	"liger/internal/model"
	"liger/internal/scenario"
)

// compileBatch compiles a single-node batch scenario on the A100 node
// at batches arrivals per probe, its model trimmed to 8 layers of
// OPT-30B to keep the search fast.
func compileBatch(t *testing.T, batches int) *scenario.Compiled {
	t.Helper()
	sc := &scenario.Scenario{
		Name:     "tune",
		Node:     scenario.NodeSpec{Preset: "a100"},
		Workload: scenario.Workload{Batches: batches, Rate: scenario.RelRate(1), Seed: 1},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	c.Model = model.OPT30B().WithLayers(8)
	return c
}

func fastCfg(t *testing.T) Config {
	return Config{Scenario: compileBatch(t, 40), Points: 5}
}

func TestRunFindsSaturations(t *testing.T) {
	rep, err := Run(fastCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.IntraSat <= 0 || rep.LigerSat <= 0 || rep.InterSat <= 0 {
		t.Fatalf("missing saturation: %+v", rep)
	}
	// On the PCIe node Liger must out-saturate Intra-Op; the pure
	// pipeline out-saturates both (it gives up latency for it).
	if rep.LigerSat <= rep.IntraSat {
		t.Fatalf("Liger saturation %.2f not above Intra-Op %.2f", rep.LigerSat, rep.IntraSat)
	}
	if rep.InterSat <= rep.IntraSat {
		t.Fatalf("Inter-Op saturation %.2f not above Intra-Op %.2f", rep.InterSat, rep.IntraSat)
	}
}

func TestRunFindsAdvantageWindow(t *testing.T) {
	rep, err := Run(fastCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasWindow() {
		t.Fatalf("no advantage window found: %s", rep)
	}
	// The window must sit between Intra-Op's comfort zone and Liger's
	// saturation.
	if rep.AdvantageHi > 1.05*rep.LigerSat {
		t.Fatalf("window upper bound %.2f above Liger saturation %.2f", rep.AdvantageHi, rep.LigerSat)
	}
	if rep.AdvantageLo <= 0 {
		t.Fatalf("degenerate window lower bound: %s", rep)
	}
}

func TestSweepShapes(t *testing.T) {
	cfg := fastCfg(t)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp} {
		pts := rep.Sweep[kind]
		if len(pts) != cfg.Points {
			t.Fatalf("%v has %d probe points, want %d", kind, len(pts), cfg.Points)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Rate <= pts[i-1].Rate {
				t.Fatalf("%v rates not increasing", kind)
			}
			if pts[i].Latency < pts[i-1].Latency/2 {
				t.Fatalf("%v latency implausibly dropped with load", kind)
			}
		}
	}
}

func TestReportString(t *testing.T) {
	rep := Report{LigerSat: 10, IntraSat: 8, InterSat: 12, AdvantageLo: 8, AdvantageHi: 10}
	s := rep.String()
	if !strings.Contains(s, "advantage window") {
		t.Fatalf("summary %q missing window", s)
	}
	none := Report{LigerSat: 10, IntraSat: 8, InterSat: 12}
	if !strings.Contains(none.String(), "no strict advantage window") {
		t.Fatalf("summary %q missing no-window note", none.String())
	}
}

func TestConfigClamps(t *testing.T) {
	cfg := fastCfg(t)
	cfg.Points = 1
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sweep[core.KindLiger]) < 3 {
		t.Fatal("Points not clamped to a usable minimum")
	}
}

func TestRunRejectsServingScenario(t *testing.T) {
	sc := &scenario.Scenario{
		Name:     "continuous",
		Workload: scenario.Workload{Mode: "continuous", Batches: 10, Rate: scenario.AbsRate(10), Seed: 1},
	}
	c, err := scenario.Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Scenario: c}); err == nil || !strings.Contains(err.Error(), "not a single-node batch scenario") {
		t.Fatalf("err %v, want a single-node batch rejection", err)
	}
}
