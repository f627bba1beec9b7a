package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"liger/internal/runner"
)

var update = flag.Bool("update", false, "rewrite golden files")

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
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("paper report drifted from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("paper report drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
