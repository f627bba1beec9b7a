package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// readObservabilityDir runs the traced failover points into a fresh
// directory at the given worker count and returns every artifact by
// filename.
func readObservabilityDir(t *testing.T, parallel int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	cfg := RunConfig{Batches: 25, Quick: true, Seed: 5, Parallel: parallel, TraceDir: dir}
	if err := writeFailoverObservability(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = buf
	}
	return out
}

// The golden determinism promise: a traced failover run — Chrome traces
// and metrics snapshots — is byte-identical across sweep-executor worker
// counts and repeated runs, and every artifact is valid JSON.
func TestFailoverObservabilityDeterministicAndValid(t *testing.T) {
	serial := readObservabilityDir(t, 0)
	par := readObservabilityDir(t, 4)
	if len(serial) != 9 {
		t.Fatalf("%d artifacts, want a trace + metrics + analysis triple per runtime (9)", len(serial))
	}
	for name, buf := range serial {
		other, ok := par[name]
		if !ok {
			t.Fatalf("%s missing from the -parallel 4 run", name)
		}
		if !bytes.Equal(buf, other) {
			t.Errorf("%s differs between -parallel 0 and -parallel 4", name)
		}
		var doc any
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Errorf("%s is not valid JSON: %v", name, err)
		}
	}
}

// A traced failover point must actually show the failure story: a
// device-fail instant, rendezvous-wait spans, truncated (cancelled)
// kernel spans, a recovery window, and a metrics snapshot whose
// per-request rows decompose latency.
func TestFailoverObservabilityContent(t *testing.T) {
	arts := readObservabilityDir(t, 0)
	tr, ok := arts["failover_liger.trace.json"]
	if !ok {
		t.Fatalf("no Liger trace among %d artifacts", len(arts))
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(tr, &events); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	cancelled := false
	for _, e := range events {
		seen[e.Name+"/"+e.Ph] = true
		if e.Ph == "X" && e.Args["cancelled"] != nil {
			cancelled = true
		}
	}
	for _, want := range []string{
		"device-fail/i", "rendezvous-wait/X", "recovery/X", "coll-enqueue/i", "queue/C",
	} {
		if !seen[want] {
			t.Errorf("trace lacks a %s event", want)
		}
	}
	if !cancelled {
		t.Error("no kernel span flagged cancelled despite a mid-run DeviceFail")
	}

	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Requests []struct {
			TotalNS   int64 `json:"total_ns"`
			ComputeNS int64 `json:"compute_ns"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(arts["failover_liger.metrics.json"], &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["device_failures"] != 1 || snap.Counters["failovers"] != 1 {
		t.Fatalf("metrics counters missing the failure: %v", snap.Counters)
	}
	if snap.Counters["collectives_aborted"] == 0 {
		t.Fatalf("no aborted collectives counted across a device failure: %v", snap.Counters)
	}
	decomposed := false
	for _, r := range snap.Requests {
		if r.ComputeNS > 0 && r.TotalNS >= r.ComputeNS {
			decomposed = true
		}
	}
	if !decomposed {
		t.Error("no request row carries a device-side compute decomposition")
	}

	// The analysis artifact must explain the failure: a critical path
	// tiling the makespan and idle time attributed to the failed device
	// and the recovery window.
	var rep struct {
		Makespan     int64 `json:"Makespan"`
		CriticalPath struct {
			Totals map[string]int64 `json:"Totals"`
		} `json:"CriticalPath"`
		Gaps struct {
			Totals map[string]int64 `json:"Totals"`
		} `json:"Gaps"`
	}
	if err := json.Unmarshal(arts["failover_liger.analysis.json"], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatalf("analysis makespan %d, want > 0", rep.Makespan)
	}
	var pathSum int64
	for _, v := range rep.CriticalPath.Totals {
		pathSum += v
	}
	if pathSum != rep.Makespan {
		t.Fatalf("analysis critical-path totals sum to %d, want makespan %d", pathSum, rep.Makespan)
	}
	if rep.Gaps.Totals["device-failed"] == 0 {
		t.Errorf("analysis attributes no idle time to the failed device: %v", rep.Gaps.Totals)
	}
}
