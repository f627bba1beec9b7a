package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/scenario"
)

func quickCfg() RunConfig { return RunConfig{Batches: 40, Quick: true, Seed: 1} }

func TestRegistryCompleteAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	// Every paper table/figure with evaluation content must be present.
	for _, id := range []string{"table1", "fig3", "fig4", "fig6", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"contention", "channels", "splitstrategy", "robustness", "adaptive"} {
		if !seen[id] {
			t.Fatalf("missing experiment %q", id)
		}
	}
	if _, err := ByID("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestEveryExperimentRuns executes each experiment at quick fidelity —
// the whole evaluation pipeline must at least produce output without
// error.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy; skipped with -short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(quickCfg(), &buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("experiment produced no output")
			}
		})
	}
}

func TestTable1Content(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable1(quickCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"OPT-30B", "OPT-66B", "GLM-130B", "7168", "9216", "12288", "FP16"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig03Shapes(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig03(quickCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "NVLink") || !strings.Contains(out, "PCIe") {
		t.Fatalf("fig3 output missing testbeds:\n%s", out)
	}
}

func TestIntraCapacityPositive(t *testing.T) {
	p := panel{node: hw.V100Node(), spec: model.OPT30B(), batch: 2, phase: model.Context}
	cap := intraCapacity(p)
	if cap <= 0 || cap > 1000 {
		t.Fatalf("implausible capacity %v", cap)
	}
	// Larger batches take longer per batch: capacity must fall.
	p8 := p
	p8.batch = 8
	if c8 := intraCapacity(p8); c8 >= cap {
		t.Fatalf("batch-8 capacity %v not below batch-2 %v", c8, cap)
	}
}

func TestRateFractionsSpanSaturation(t *testing.T) {
	for _, quick := range []bool{true, false} {
		fr := rateFractions(quick)
		if fr[0] >= 1 {
			t.Fatal("sweep starts at or above intra capacity")
		}
		if fr[len(fr)-1] <= 1 {
			t.Fatal("sweep never exceeds intra capacity")
		}
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg()
	cfg.CSVDir = dir
	p := panel{label: "tiny on v100, batch 2", nodeKey: "v100", node: hw.V100Node(),
		spec: model.Tiny(), batch: 2, phase: model.Context}
	rates := []float64{100, 200}
	results, err := runPanel(p, rates, []core.RuntimeKind{core.KindLiger, core.KindIntraOp}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := writePanelCSV(cfg, "figX", p, rates, results); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("%d csv files", len(files))
	}
	data, err := os.ReadFile(filepath.Join(dir, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// header + 2 runtimes x 2 rates.
	if len(lines) != 5 {
		t.Fatalf("%d csv lines:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "experiment,panel,rate") {
		t.Fatalf("bad header %q", lines[0])
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("OPT-30B on v100, batch 2"); got != "OPT-30B_on_v100__batch_2" {
		t.Fatalf("sanitize = %q", got)
	}
}

func TestRunPointProducesResult(t *testing.T) {
	p := panel{nodeKey: "v100", node: hw.V100Node(), spec: model.Tiny(), batch: 2, phase: model.Context}
	res, err := runPoint(p, 500, core.KindLiger, quickCfg(), scenario.LigerSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != quickCfg().Batches {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestFig06ShowsOverlapOnlyForLiger(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig06(quickCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Three timeline sections, one per runtime.
	for _, want := range []string{"Intra-Op", "Inter-Op", "Liger", "gpu0 comp", "gpu0 comm"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 output missing %q", want)
		}
	}
	// The Intra-Op section must report zero overlap and Liger nonzero.
	intraIdx := strings.Index(out, "Intra-Op")
	ligerIdx := strings.Index(out, "Liger (device")
	intraSection := out[intraIdx : strings.Index(out[intraIdx:], "Inter-Op")+intraIdx]
	ligerSection := out[ligerIdx:]
	if !strings.Contains(intraSection, "overlap on device 0: 0s") {
		t.Fatalf("intra-op section reports overlap:\n%s", intraSection)
	}
	if strings.Contains(ligerSection, "overlap on device 0: 0s") {
		t.Fatalf("liger section reports no overlap:\n%s", ligerSection)
	}
}
