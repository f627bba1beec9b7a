package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"liger/internal/bench"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRuns pins every flag mode end to end. Each case runs its steps
// in order in one fresh directory, with relative output names so the
// "wrote …" lines are stable.
var goldenRuns = []struct {
	name  string
	steps [][]string
}{
	{"journal", [][]string{{"-journal", "3", "-decode", "-process", "poisson", "-deadline", "50ms"}}},
	{"explain", [][]string{{"-runtime", "Liger", "-batches", "20", "-rate", "20", "-explain"}}},
	{"trace-metrics", [][]string{{"-model", "tiny", "-batches", "5", "-trace", "t.json", "-metrics", "m.json", "-window", "1ms"}}},
	{"tracein", [][]string{
		{"-model", "tiny", "-batches", "20", "-rate", "50", "-process", "bursty", "-tracesave", "arrivals.json"},
		{"-model", "tiny", "-tracein", "arrivals.json"},
	}},
	{"continuous", [][]string{{"-continuous", "-model", "tiny", "-batches", "24", "-rate", "2000",
		"-prompt", "32", "-gen", "8", "-pool", "8",
		"-serving-report", "-serving-trace", "s.json", "-metrics", "m.json", "-window", "1ms"}}},
	{"disagg", [][]string{{"-disagg", "-model", "tiny", "-batches", "24", "-rate", "2000",
		"-prompt", "32", "-gen", "8", "-pool", "8", "-prefillnodes", "2", "-decodenodes", "2",
		"-serving-report", "-serving-trace", "d.json"}}},
	{"fleet", [][]string{{"-nodes", "3", "-spares", "1", "-deadline", "100ms", "-hedge", "20ms", "-serving-trace", "f.json"}}},
}

// buildLigersim compiles this command into a temporary directory.
func buildLigersim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ligersim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCase runs one case's steps in a fresh directory with extra flags
// appended, and renders what it observed: each step's command and
// stdout (host lines stripped), then every file left in the directory
// by size and SHA-256.
func runCase(t *testing.T, bin string, steps [][]string, extra ...string) []byte {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	for _, args := range steps {
		cmd := exec.Command(bin, append(append([]string(nil), args...), extra...)...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ligersim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		fmt.Fprintf(&buf, "$ ligersim %s\n", strings.Join(args, " "))
		buf.Write(bench.StripHostLines(out))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "file %s: %d bytes, sha256 %x\n", name, len(data), sha256.Sum256(data))
	}
	return buf.Bytes()
}

// TestLigersimGolden pins each flag mode's stdout and output files at
// -shards 1 and -shards 4 against one golden per case; -update rewrites
// the goldens from the -shards 1 run, only when an output is meant to
// move.
func TestLigersimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped with -short")
	}
	bin := buildLigersim(t)
	for _, tc := range goldenRuns {
		t.Run(tc.name, func(t *testing.T) {
			golden := filepath.Join("testdata", tc.name+".golden")
			for _, shards := range []string{"1", "4"} {
				got := runCase(t, bin, tc.steps, "-shards", shards)
				if *update && shards == "1" {
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
					gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
					for i := 0; i < len(gl) && i < len(wl); i++ {
						if !bytes.Equal(gl[i], wl[i]) {
							t.Fatalf("-shards %s drifted from %s at line %d:\n got %s\nwant %s", shards, golden, i+1, gl[i], wl[i])
						}
					}
					t.Fatalf("-shards %s drifted from %s: %d lines, want %d", shards, golden, len(gl), len(wl))
				}
			}
		})
	}
}

// TestLigersimRejects pins that a flag the selected mode does not read,
// a stray argument and an out-of-range value each fail the invocation
// before anything is written, with a message naming the culprit.
func TestLigersimRejects(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped with -short")
	}
	bin := buildLigersim(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-continuous", "-trace", "t.json"}, "-trace is not read in continuous mode"},
		{[]string{"-batches", "5", "-rate", "20", "-serving-trace", "s.json"}, "-serving-trace is not read in batch mode"},
		{[]string{"-nodes", "2", "-metrics", "m.json", "-serving-report", "-explain"}, "-explain is not read in fleet (-nodes) mode"},
		{[]string{"-nodes", "2", "-metrics", "m.json"}, "-metrics is not read in fleet (-nodes) mode"},
		{[]string{"-nodes", "2", "-serving-report"}, "-serving-report is not read in fleet (-nodes) mode"},
		{[]string{"-continuous", "-tracein", "/nonexistent"}, "-tracein is not read in continuous mode"},
		{[]string{"-disagg", "-nodes", "3"}, "-nodes is not read in disagg mode"},
		{[]string{"-continuous", "-deadline", "50ms"}, "-deadline is not read in continuous mode"},
		{[]string{"-prefillnodes", "2"}, "-prefillnodes is not read in batch mode"},
		{[]string{"-batches", "5", "foo"}, `unexpected argument "foo"`},
		{[]string{"-nodes", "-1"}, "cluster.nodes: need at least one replica node, got -1"},
		{[]string{"-gpus", "-3"}, "node.gpus: negative GPU count -3"},
		{[]string{"-deadline", "-1s"}, "serve: negative deadline -1s"},
		{[]string{"-nodes", "2", "-hedge", "-1ms"}, "policy.hedge: resolves to -1ms"},
		{[]string{"-nodes", "2", "-retries", "-1"}, "policy.retries: negative budget -1"},
		{[]string{"-rate", "-5"}, "workload.rate: resolves to -5"},
		{[]string{"-batch", "0"}, "-batch: 0 is out of range"},
		{[]string{"-continuous", "-pool", "0"}, "-pool: 0 is out of range"},
		{[]string{"-cfactor", "-1"}, "contention factor -1"},
		{[]string{"-tracein", "empty.json"}, "serve: trace file has no arrivals"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "empty.json"), []byte(`{"version": 1, "arrivals": []}`), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(bin, tc.args...)
			cmd.Dir = dir
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Run(); err == nil {
				t.Fatalf("exit 0, want a failure naming %q", tc.want)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q, want it to contain %q", stderr.String(), tc.want)
			}
			if entries, _ := os.ReadDir(dir); len(entries) > 1 {
				t.Fatalf("a failed invocation wrote files: %v", entries)
			}
		})
	}
}
