package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"liger/internal/core"
	"liger/internal/serve"
)

// TestRunOneLigerOverride pins that the liger: section reaches the Liger
// runtime in every mode: an out-of-range contention factor fails each
// run.
func TestRunOneLigerOverride(t *testing.T) {
	const batch = `
model: tiny
runtimes: [liger]
workload:
  batches: 2
  rate: 10
`
	const fleet = batch + `
cluster:
  nodes: 2
`
	const disagg = continuousYAML + `
cluster:
  prefill: 1
  decode: 1
`
	cases := []struct{ name, doc string }{
		{"batch", batch},
		{"fleet", fleet},
		{"continuous", continuousYAML},
		{"disagg", disagg},
	}
	compile := func(name, doc string) *Compiled {
		t.Helper()
		sc, err := Parse([]byte(doc), name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range cases {
		if _, err := RunOne(compile(tc.name, tc.doc), core.KindLiger, RunOptions{}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		bad := compile(tc.name, tc.doc+"liger:\n  contention_factor: 0.5\n")
		_, err := RunOne(bad, core.KindLiger, RunOptions{})
		if err == nil || !strings.Contains(err.Error(), "contention factor 0.5") {
			t.Errorf("%s: err = %v, want the liger key's contention factor rejected", tc.name, err)
		}
	}
}

// TestArrivalsFileReplaysTheTrace pins workload.arrivals in batch and
// fleet modes: a file saved from the generated trace serves the same
// run, byte for byte.
func TestArrivalsFileReplaysTheTrace(t *testing.T) {
	const batch = `
model: tiny
runtimes: [liger, intra]
workload:
  batches: 12
  rate: 0.8x
  process: bursty
  seed: 4
`
	const fleet = batch + `
cluster:
  nodes: 2
`
	for _, tc := range []struct{ name, doc string }{{"batch", batch}, {"fleet", fleet}} {
		t.Run(tc.name, func(t *testing.T) {
			render := func(doc string) (string, *Compiled) {
				sc, err := Parse([]byte(doc), "arrivals")
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
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String(), c
			}
			want, c := render(tc.doc)
			arr, err := serve.Generate(c.Trace)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "arrivals.json")
			var file bytes.Buffer
			if err := serve.SaveTrace(&file, arr); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			got, replayed := render(strings.Replace(tc.doc, "  seed: 4\n", "  seed: 4\n  arrivals: "+path+"\n", 1))
			if len(replayed.Arrivals) != len(arr) {
				t.Fatalf("compiled %d arrivals, saved %d", len(replayed.Arrivals), len(arr))
			}
			if got != want {
				t.Errorf("replayed report differs from the generated run:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestArrivalsFileErrors pins Compile's rejection of an arrival file it
// cannot load, and Load's resolution of a relative path against the
// scenario file.
func TestArrivalsFileErrors(t *testing.T) {
	dir := t.TempDir()
	doc := "model: tiny\nworkload:\n  batches: 5\n  rate: 1\n  arrivals: missing.json\n"
	if err := os.WriteFile(filepath.Join(dir, "s.yaml"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Load(filepath.Join(dir, "s.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "missing.json"); sc.Workload.Arrivals != want {
		t.Fatalf("arrivals path %q, want %q", sc.Workload.Arrivals, want)
	}
	if _, err := Compile(sc); err == nil || !strings.Contains(err.Error(), "workload.arrivals: open "+sc.Workload.Arrivals) {
		t.Errorf("missing file: err = %v", err)
	}
	if err := os.WriteFile(sc.Workload.Arrivals, []byte(`{"version": 1, "arrivals": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(sc); err == nil || !strings.Contains(err.Error(), "workload.arrivals: serve: trace file has no arrivals") {
		t.Errorf("empty file: err = %v", err)
	}
}
