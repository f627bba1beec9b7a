package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestFlattenNumericLeaves(t *testing.T) {
	var doc any
	if err := json.Unmarshal([]byte(`{
		"headline": {"recovery_ms": {"Liger": 12.5}},
		"rows": [{"goodput": 3.5, "failed": true, "runtime": "Liger"}, {"goodput": 0}],
		"seed": 1,
		"note": null
	}`), &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	flatten("", doc, got)
	want := map[string]float64{
		"headline.recovery_ms.Liger": 12.5,
		"rows[0].goodput":            3.5,
		"rows[0].failed":             1,
		"rows[1].goodput":            0,
		"seed":                       1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flatten = %v, want %v", got, want)
	}
}

func TestDiffMetricsThreshold(t *testing.T) {
	old := map[string]float64{"a": 100, "b": 100, "c": 0, "gone": 7}
	cur := map[string]float64{"a": 103, "b": 110, "c": 0, "new": 9}
	rep := diffMetrics(old, cur, 0.05)
	if rep.compared != 3 {
		t.Fatalf("compared %d metrics, want 3", rep.compared)
	}
	if len(rep.regressions) != 1 || rep.regressions[0].key != "b" {
		t.Fatalf("regressions = %+v, want exactly b", rep.regressions)
	}
	if rep.structural != 2 || rep.onlyOld[0] != "gone" || rep.onlyNew[0] != "new" {
		t.Fatalf("structural drift = %v/%v, want gone/new", rep.onlyOld, rep.onlyNew)
	}
	// Identical documents: nothing to report.
	rep = diffMetrics(old, old, 0.05)
	if len(rep.regressions) != 0 || rep.structural != 0 {
		t.Fatalf("self-diff not clean: %+v", rep)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	// A metric appearing from a zero baseline uses the absolute value
	// as its relative change, so real movements trip the gate while
	// float dust stays under it.
	rep := diffMetrics(map[string]float64{"x": 0}, map[string]float64{"x": 0.5}, 0.05)
	if len(rep.regressions) != 1 {
		t.Fatalf("0 -> 0.5 should regress, got %+v", rep.deltas)
	}
	rep = diffMetrics(map[string]float64{"x": 0}, map[string]float64{"x": 1e-9}, 0.05)
	if len(rep.regressions) != 0 {
		t.Fatalf("0 -> 1e-9 should pass, got %+v", rep.regressions)
	}
}

func TestLoadMetricsAndFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, []byte(`{"goodput": 4.25, "rows": [{"lat": 10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadMetrics(path)
	if err != nil {
		t.Fatal(err)
	}
	if m["goodput"] != 4.25 || m["rows[0].lat"] != 10 {
		t.Fatalf("loadMetrics = %v", m)
	}
	rep := diffMetrics(m, map[string]float64{"goodput": 2, "rows[0].lat": 10.1}, 0.05)
	lines := rep.format(true)
	if len(lines) != 2 {
		t.Fatalf("format lines = %q, want regression + changed", lines)
	}
	if lines[0] != "REGRESSION goodput: 4.25 -> 2 (-52.9%)" {
		t.Fatalf("regression line = %q", lines[0])
	}
}

// Exact paths must keep their value to the last bit and be on both
// sides; the threshold does not apply to them, and the other metrics
// keep their threshold judgement.
func TestDiffExactPaths(t *testing.T) {
	exact := []string{"workloads.*.gpusim.kernels", "workloads.*.latency_*"}
	old := map[string]float64{
		"workloads.a.gpusim.kernels":  100,
		"workloads.b.gpusim.kernels":  200,
		"workloads.a.latency_p50_ms":  1.5,
		"workloads.a.cpu_s":           2,
		"workloads.a.latency_p99_ms":  3,
		"workloads.a.gpusim.kernels2": 5,
	}
	cur := map[string]float64{
		"workloads.a.gpusim.kernels":  100,
		"workloads.b.gpusim.kernels":  200.0001, // far below any threshold
		"workloads.a.latency_p50_ms":  1.5,
		"workloads.a.cpu_s":           4, // a threshold regression, not an exact one
		"workloads.a.gpusim.kernels2": 50,
	}
	rep := diffMetrics(old, cur, 0.05, exact...)
	if len(rep.mismatches) != 1 || rep.mismatches[0].key != "workloads.b.gpusim.kernels" {
		t.Fatalf("mismatches = %+v, want workloads.b.gpusim.kernels", rep.mismatches)
	}
	if !reflect.DeepEqual(rep.exactMissing, []string{"workloads.a.latency_p99_ms"}) {
		t.Fatalf("exact metrics on one side = %v, want workloads.a.latency_p99_ms", rep.exactMissing)
	}
	var regressed []string
	for _, d := range rep.regressions {
		regressed = append(regressed, d.key)
	}
	if !reflect.DeepEqual(regressed, []string{"workloads.a.cpu_s", "workloads.a.gpusim.kernels2"}) {
		t.Fatalf("regressions = %v, want cpu_s and kernels2 (no pattern matches it)", regressed)
	}
	lines := rep.format(false)
	if lines[0] != "MISMATCH workloads.b.gpusim.kernels: 200 -> 200.0001 (exact)" ||
		lines[1] != "MISSING  workloads.a.latency_p99_ms (exact)" {
		t.Fatalf("format lines = %q", lines)
	}
	// Without patterns the same documents have no exact findings.
	if rep := diffMetrics(old, cur, 0.05); len(rep.mismatches)+len(rep.exactMissing) != 0 {
		t.Fatalf("exact findings without patterns: %+v", rep)
	}
}
