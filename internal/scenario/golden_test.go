package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCorpusGolden pins the full load → compile → run → assert
// pipeline on real corpus files: the text report must be byte-stable.
// impossible-slo is the negative fixture — its report must say FAIL.
func TestCorpusGolden(t *testing.T) {
	cases := []struct {
		file string
		pass bool
	}{
		{"healthy-baseline.yaml", true},
		{"cascading-failures.yaml", true},
		{"mid-run-device-loss.yaml", true},
		{"fleet-node-loss.yaml", true},
		{"decode-heavy.yaml", true},
		{"disagg-pools.yaml", true},
		{"liger-cpu-gpu-sync.yaml", true},
		{"fixtures/impossible-slo.yaml", false},
		{"fixtures/no-spare-capacity.yaml", false},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			sc, err := Load(filepath.Join("..", "..", "scenarios", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(sc)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(c, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Pass != tc.pass {
				t.Errorf("%s: pass = %v, want %v (%s)", tc.file, rep.Pass, tc.pass, rep.Verdict())
			}
			var buf bytes.Buffer
			if err := rep.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", filepath.Base(tc.file)+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
			}
		})
	}
}

// TestRunParallelInvariant pins the determinism contract: the same
// scenario renders byte-identical text and JSON reports at any
// -parallel or -shards setting.
func TestRunParallelInvariant(t *testing.T) {
	sc, err := Load(filepath.Join("..", "..", "scenarios", "cascading-failures.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallel, shards int) (string, string) {
		c, err := Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(c, RunOptions{Parallel: parallel, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		if err := rep.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.String(), js.String()
	}
	baseText, baseJSON := render(1, 0)
	for _, cfg := range []struct{ parallel, shards int }{{4, 0}, {2, 4}} {
		text, js := render(cfg.parallel, cfg.shards)
		if text != baseText {
			t.Errorf("text report differs at parallel=%d shards=%d", cfg.parallel, cfg.shards)
		}
		if js != baseJSON {
			t.Errorf("JSON report differs at parallel=%d shards=%d", cfg.parallel, cfg.shards)
		}
	}
}

// TestFleetParallelInvariant pins the fleet determinism contract: the
// cluster scenario — router, node shards, mid-run node loss and all —
// renders byte-identical text and JSON reports at any -parallel or
// -shards setting.
func TestFleetParallelInvariant(t *testing.T) {
	sc, err := Load(filepath.Join("..", "..", "scenarios", "fleet-node-loss.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallel, shards int) string {
		c, err := Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(c, RunOptions{Parallel: parallel, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		if err := rep.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.String() + js.String()
	}
	base := render(1, 1)
	for _, cfg := range []struct{ parallel, shards int }{{3, 2}, {1, 8}} {
		if got := render(cfg.parallel, cfg.shards); got != base {
			t.Errorf("fleet report differs at parallel=%d shards=%d", cfg.parallel, cfg.shards)
		}
	}
}

// TestStressDeterministic pins the stress harness contract: same
// (N, seed) yields byte-identical survival reports at any worker
// count.
func TestStressDeterministic(t *testing.T) {
	render := func(parallel int) string {
		rep, err := Stress(StressConfig{N: 6, Seed: 42, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		if err := rep.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.String() + js.String()
	}
	base := render(1)
	for _, parallel := range []int{4, 8, 2} {
		if got := render(parallel); got != base {
			t.Errorf("stress report differs at parallel=%d", parallel)
		}
	}
}

// TestStressSurvival sanity-checks the aggregate: every runtime is
// expected to survive the generated fleet (the instances are sized so
// degradation, not collapse, is the norm).
func TestStressSurvival(t *testing.T) {
	rep, err := Stress(StressConfig{N: 6, Seed: 42, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Died > 0 {
		t.Errorf("%d instances failed to build", rep.Died)
	}
	for _, name := range []string{"Liger", "Intra-Op", "Inter-Op"} {
		if rep.Survived[name] == 0 {
			t.Errorf("%s survived 0 instances", name)
		}
	}
}
