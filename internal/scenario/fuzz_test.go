package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

var yamlErrPrefix = regexp.MustCompile(`^line [0-9]+: `)

// FuzzParse drives the loader — YAML and JSON front ends, the
// tag-driven decoder, Validate — and Compile with arbitrary bytes,
// seeded from the scenario corpus. Plain `go test` runs only the
// seeds; `make fuzz` runs it for real. It checks:
//
//  1. nothing panics;
//  2. every YAML syntax error starts with "line <n>:" (or is the
//     empty document);
//  3. front-end parity: a YAML mapping re-encoded as JSON decodes to
//     a DeepEqual scenario, or fails with the same error text;
//  4. Compile of an accepted scenario does not panic, and on success
//     the resolved rate is finite and positive and so is the horizon,
//     which fits time.Duration.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{"*.yaml", "fixtures/*.yaml"} {
		files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", pattern))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"name": "js", "model": "tiny", "workload": {"batches": 5, "rate": "0.5x", "seq": {"min": 8, "max": 32}}}`))
	for _, v := range []string{"rate: nan", "rate: inf", "rate: infinity", "rate: nanx", "rate: 1e308x", "rate: 1e-300", "rate: 1e300", "seed: 1e19"} {
		f.Add([]byte("model: tiny\nworkload:\n  batches: 5\n  " + v + "\n"))
	}
	f.Add([]byte(wl + "chaos:\n  events:\n    - kind: slowdown\n      factor: nan\n"))
	f.Add([]byte(wl + "liger:\n  sync: cpu-gpu\n  contention_factor: 1.2\n  division_factor: 4\n  inflight: 2\n"))
	f.Add([]byte("model: tiny\ncluster:\n  prefill: 2\n  decode: 1\n  network: ethernet\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 0.5x\n"))
	f.Add([]byte(wl + "  arrivals: arrivals.json\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data, "fuzz")

		if !strings.HasPrefix(strings.TrimLeft(string(data), " \t\r\n"), "{") {
			tree, perr := parseDocument(data)
			if perr != nil && perr.Error() != "empty document" && !yamlErrPrefix.MatchString(perr.Error()) {
				t.Fatalf("YAML error without a line number: %v", perr)
			}
			if m, ok := tree.(map[string]any); ok && utf8.Valid(data) {
				// json.Marshal fails on NaN/Inf, which JSON cannot spell.
				if js, jerr := json.Marshal(m); jerr == nil {
					sc2, err2 := Parse(js, "fuzz")
					if errText(err) != errText(err2) || !reflect.DeepEqual(sc, sc2) {
						t.Fatalf("front ends disagree:\nYAML %+v, %v\nJSON %+v, %v\n%s", sc, err, sc2, err2, js)
					}
				}
			}
		}

		if err != nil || !cheapToCompile(sc) {
			return
		}
		c, err := Compile(sc)
		if err == nil && !(c.Rate > 0 && finite(c.Rate)) {
			t.Fatalf("compiled rate %v", c.Rate)
		}
		if err == nil && c.Horizon <= 0 {
			t.Fatalf("compiled horizon %v", c.Horizon)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// cheapToCompile bounds the knobs Compile's work and memory grow with
// (the device pool and each generator's event count): a scenario may set
// them arbitrarily high, and the fuzzer should spend its time on
// shapes, not on allocating. An arrival file lies outside the fuzzed
// bytes (its path may name any file, one that never ends included), so
// a scenario naming one is not compiled.
func cheapToCompile(sc *Scenario) bool {
	if sc.Node.GPUs > 1<<10 || sc.Workload.Arrivals != "" {
		return false
	}
	for _, g := range sc.Chaos.Random {
		if g.Count > 1<<10 {
			return false
		}
	}
	return true
}
