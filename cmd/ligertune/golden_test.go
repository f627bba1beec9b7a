package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRuns pins the tuner's stdout: the default flags, a reduced A100
// search, and out-of-range counts, which clamp to 10 batches per probe
// and 3 sweep points.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"default", nil},
	{"a100", []string{"-node", "a100", "-batches", "40", "-points", "5"}},
	{"clamp", []string{"-batches", "0", "-points", "1"}},
}

// buildLigertune compiles this command into a temporary directory.
func buildLigertune(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ligertune")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestLigertuneGolden pins each case's stdout against one golden;
// -update rewrites them, only when an output is meant to move.
func TestLigertuneGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped with -short")
	}
	bin := buildLigertune(t)
	for _, tc := range goldenRuns {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("ligertune %s: %v\n%s", strings.Join(tc.args, " "), err, stderr.Bytes())
			}
			got := append([]byte(fmt.Sprintf("$ %s\n", strings.Join(append([]string{"ligertune"}, tc.args...), " "))), out...)
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
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
				t.Fatalf("output drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

// TestLigertuneRejects pins that an invalid invocation exits 1 before
// printing anything; a non-empty want must appear on stderr.
func TestLigertuneRejects(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped with -short")
	}
	bin := buildLigertune(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-batch", "0"}, "-batch: 0 is out of range"},
		{[]string{"-batch", "-1"}, "workload.batch: negative batch size -1"},
		{[]string{"-points", "5", "foo"}, `unexpected argument "foo"`},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("ligertune %s: %v, want exit status 1", strings.Join(tc.args, " "), err)
			}
			if len(out) > 0 {
				t.Fatalf("a failed invocation printed %q", out)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q, want it to contain %q", stderr.String(), tc.want)
			}
		})
	}
}
