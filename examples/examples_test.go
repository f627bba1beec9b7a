// Package examples_test runs every example program and pins its stdout.
package examples_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the stdout goldens")

// TestExamplesGolden builds each example (every directory here), runs it in a fresh directory
// (tracing writes liger_trace.json into its working directory) and
// compares its stdout with <name>/testdata/stdout.golden; -update
// rewrites the goldens, only when an output is meant to move.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example; skipped with -short")
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	var examples []string
	for _, e := range entries {
		if e.IsDir() {
			examples = append(examples, e.Name())
			args = append(args, "./"+e.Name())
		}
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range examples {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Dir = t.TempDir()
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			golden := filepath.Join(name, "testdata", "stdout.golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("stdout drifted from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("stdout drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
			}
		})
	}
}
