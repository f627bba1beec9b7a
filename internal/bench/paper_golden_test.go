package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"liger/internal/runner"
)

var (
	update = flag.Bool("update", false, "rewrite golden files")
	full   = flag.Bool("full", false, "also run TestPaperFull, the results_full.txt fidelity (make paper)")
)

// TestPaperGolden pins the whole reproduction at quick fidelity: the
// report of `ligerbench -exp all -quick -batches 20`, host lines
// stripped, byte for byte. Every paper table and figure and every
// extension experiment is in it, so a change that moves any reproduced
// number fails here. Run with -update only when an output is meant to
// move.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped with -short")
	}
	cfg := DefaultRunConfig()
	cfg.Batches, cfg.Quick, cfg.Parallel = 20, true, runner.DefaultWorkers()
	var buf bytes.Buffer
	if err := RunAll(Experiments(), cfg, &buf); err != nil {
		t.Fatal(err)
	}
	got := StripHostLines(buf.Bytes())
	golden := filepath.Join("testdata", "paper-quick.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	requireSameReport(t, golden, got, want)
}

// TestPaperFull pins the full-fidelity reproduction: every experiment
// results_full.txt holds (table1 through straggler), rerun in the
// file's order at -batches 200, must match the file with host lines
// stripped. It runs only with -full: `make paper` and the tools/ci
// paper gate set it.
func TestPaperFull(t *testing.T) {
	if !*full {
		t.Skip("full-fidelity run; enable with -full")
	}
	path := filepath.Join("..", "..", "results_full.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var exps []Experiment
	for _, line := range bytes.Split(want, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("==== ")); ok {
			id, _, _ := bytes.Cut(rest, []byte(":"))
			e, err := ByID(string(id))
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, e)
		}
	}
	cfg := DefaultRunConfig()
	cfg.Batches, cfg.Parallel = 200, runner.DefaultWorkers()
	var buf bytes.Buffer
	if err := RunAll(exps, cfg, &buf); err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, path, StripHostLines(buf.Bytes()), StripHostLines(want))
}

// requireSameReport fails at the first line where got departs from
// want, the report pinned in file.
func requireSameReport(t *testing.T, file string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("paper report drifted from %s at line %d:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("paper report drifted from %s: %d lines, want %d", file, len(gl), len(wl))
}
