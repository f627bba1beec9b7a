// Command ci runs the repository's full check gate — the same sequence
// the Makefile's `check` target runs, packaged as a Go program so the
// gate works on hosts without make:
//
//	go run ./tools/ci
//
// Steps, in order (the run stops at the first failure):
//  1. gofmt -l on tracked Go files (fails if any file needs formatting)
//  2. go vet ./...
//  3. go build ./...
//  4. go test -race ./internal/runner ./internal/simclock
//     ./internal/faults ./internal/serve ./internal/cluster
//     ./internal/kvcache ./internal/generate
//     (the concurrency-bearing packages plus the fault-injection,
//     deadline/retry, fleet, and serving-telemetry layers get a
//     dedicated race pass)
//  5. go test ./... (full suite), then `go test ./...` inside
//     tools/perf, the benchmark harness's own module
//  6. a chaos smoke run: `ligerbench -exp chaos -quick` at a small
//     batch count, proving the fault scenarios execute end to end
//  7. a failover race pass: the permanent-device-failure paths across
//     gpusim, runtimes, liger, and serve under -race, including the
//     teardown paths of the kernel-instance, event and collective pools
//     (KernelPool and EventPool tests)
//  8. an observability race pass: the tracer hook, dependency-edge
//     emission, per-request decomposition, trace-analysis, and
//     metrics-export paths under -race
//  9. a failover smoke + determinism check: `ligerbench -exp failover
//     -quick -trace-dir` at -parallel 1 and -parallel 4 must produce
//     identical BENCH_failover.json bytes AND identical per-runtime
//     Chrome-trace/metrics/analysis artifacts, each of which must parse
//     as JSON — the byte-compare of failover_*.analysis.json doubles as
//     the analyzer determinism smoke; a warn-only benchdiff pass then
//     diffs the two sweeps' BENCH_failover.json to prove the regression
//     gate runs end to end
//  10. an explain smoke: `ligersim -explain` twice on the same seed must
//     print byte-identical critical-path/gap/overlap reports
//  11. a shards determinism smoke: `ligerbench -exp fig10 -quick` at
//     -shards 0 and -shards 4 must print byte-identical output
//     (timing lines stripped) — the lookahead-sharded path may never
//     change results, only speed (hard fail)
//  12. a fleet smoke + determinism check: `ligerbench -exp fleet
//     -quick` at -parallel 1 -shards 1 and -parallel 4 -shards 4 must
//     print identical tables and write byte-identical BENCH_fleet.json
//     artifacts (each parsing as JSON), then a warn-only benchdiff
//     over the two proves the regression gate reads the fleet artifact
//  13. a serving smoke + determinism check: `ligerbench -exp serving
//     -quick -trace-dir` (continuous batching over the paged KV
//     allocator) at -parallel 1 -shards 1 and -parallel 4 -shards 4
//     must print identical tables and write byte-identical
//     BENCH_serving.json and BENCH_serving_analysis.json artifacts
//     plus byte-identical per-runtime serving Chrome-trace/metrics/
//     decomposition artifacts, each parsing as JSON; every
//     serving_*.serving.json must carry the decomposition schema
//     (requests, segment_ns, pools, imbalance, episodes, counters);
//     warn-only benchdiff passes over the two BENCH_serving.json and
//     the two BENCH_serving_analysis.json prove the regression gate
//     reads both serving artifacts
//  14. scenario acceptance: every scenarios/*.yaml must PASS its
//     assertions, the impossible-slo and no-spare-capacity negative
//     fixtures must FAIL (exit 1) — a gate that cannot reject is not a
//     gate — and `scenarios/cascading-failures.yaml`,
//     `scenarios/fleet-node-loss.yaml`, and `scenarios/decode-heavy.yaml`
//     (the continuous-batching corpus entry) must print byte-identical
//     reports at -parallel 1 and -parallel 4 -shards 4
//  15. a stress smoke: `ligersim stress -n 25 -seed 42` twice must
//     produce byte-identical aggregate survival reports, plus a small
//     -race pass (`stress -n 3 -seed 7`) over the randomized fleet
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

type step struct {
	name string
	args []string
}

func main() {
	steps := []step{
		{"go vet", []string{"go", "vet", "./..."}},
		{"go build", []string{"go", "build", "./..."}},
		{"race (runner, simclock, faults, serve, cluster, kvcache, generate)", []string{"go", "test", "-race",
			"./internal/runner", "./internal/simclock", "./internal/faults", "./internal/serve",
			"./internal/cluster", "./internal/kvcache", "./internal/generate"}},
		{"go test", []string{"go", "test", "./..."}},
		// tools/perf is a module of its own, so the root test run above
		// does not reach its tests.
		{"perf harness tests", []string{"go", "-C", "tools/perf", "test", "./..."}},
		{"chaos smoke", []string{"go", "run", "./cmd/ligerbench",
			"-exp", "chaos", "-quick", "-batches", "25", "-seed", "5"}},
		{"failover race", []string{"go", "test", "-race",
			"-run", "Failover|FailDevice|Drain|Backoff|Quiesce|KernelPool|EventPool",
			"./internal/gpusim", "./internal/runtimes", "./internal/liger", "./internal/serve"}},
		{"observability race", []string{"go", "test", "-race",
			"-run", "Observability|ChromeTrace|Tracer|Truncated|Rendezvous|ReqBreakdown|RequestID|PerRequest|Percentiles|FromRun|WriteJSON|Dep|CriticalPath|Gap|Overlap|Window|Determinism|Timeline",
			"./internal/trace", "./internal/metrics", "./internal/gpusim",
			"./internal/runtimes", "./internal/serve", "./internal/stats",
			"./internal/analyze"}},
	}
	if err := gofmtCheck(); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL gofmt: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("ok   gofmt")
	for _, s := range steps {
		start := time.Now()
		cmd := exec.Command(s.args[0], s.args[1:]...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", s.name, err)
			os.Exit(1)
		}
		fmt.Printf("ok   %s (%v)\n", s.name, time.Since(start).Round(time.Millisecond))
	}
	start := time.Now()
	if err := failoverDeterminism(); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL failover smoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ok   failover smoke (%v)\n", time.Since(start).Round(time.Millisecond))
	start = time.Now()
	if err := explainDeterminism(); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL explain smoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ok   explain smoke (%v)\n", time.Since(start).Round(time.Millisecond))
	start = time.Now()
	if err := shardsDeterminism(); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL shards smoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ok   shards smoke (%v)\n", time.Since(start).Round(time.Millisecond))
	start = time.Now()
	if err := fleetDeterminism(); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL fleet smoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ok   fleet smoke (%v)\n", time.Since(start).Round(time.Millisecond))
	start = time.Now()
	if err := servingDeterminism(); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL serving smoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ok   serving smoke (%v)\n", time.Since(start).Round(time.Millisecond))
	start = time.Now()
	if err := scenarioAcceptance(); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL scenario acceptance: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ok   scenario acceptance (%v)\n", time.Since(start).Round(time.Millisecond))
	start = time.Now()
	if err := stressSmoke(); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL stress smoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ok   stress smoke (%v)\n", time.Since(start).Round(time.Millisecond))
	fmt.Println("all checks passed")
}

// fleetDeterminism runs the fleet-failover sweep at two worker/shard
// settings and fails unless table output and BENCH_fleet.json are
// byte-identical — the fleet simulation's shard schedule (frontend +
// one shard per node) may never change results. A warn-only benchdiff
// over the two JSONs then proves the regression gate reads the fleet
// artifact cleanly.
func fleetDeterminism() error {
	tmp, err := os.MkdirTemp("", "ci-fleet-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var outs [][]byte
	for _, workers := range []string{"1", "4"} {
		dir := filepath.Join(tmp, "p"+workers)
		cmd := exec.Command("go", "run", "./cmd/ligerbench",
			"-exp", "fleet", "-quick", "-batches", "25", "-seed", "5",
			"-parallel", workers, "-shards", workers, "-json", dir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("-parallel %s: %v", workers, err)
		}
		outs = append(outs, stripTimingLines(out))
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return fmt.Errorf("fleet table differs between -parallel 1 and -parallel 4 -shards 4")
	}
	var jsons [][]byte
	for _, workers := range []string{"1", "4"} {
		buf, err := os.ReadFile(filepath.Join(tmp, "p"+workers, "BENCH_fleet.json"))
		if err != nil {
			return err
		}
		var doc any
		if err := json.Unmarshal(buf, &doc); err != nil {
			return fmt.Errorf("-parallel %s BENCH_fleet.json is not valid JSON: %v", workers, err)
		}
		jsons = append(jsons, buf)
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		return fmt.Errorf("BENCH_fleet.json differs between -parallel 1 and -parallel 4 -shards 4")
	}
	cmd := exec.Command("go", "run", "./tools/benchdiff", "-warn",
		filepath.Join(tmp, "p1", "BENCH_fleet.json"),
		filepath.Join(tmp, "p4", "BENCH_fleet.json"))
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchdiff: %v", err)
	}
	return nil
}

// servingDeterminism runs the continuous-serving sweep — with serving
// telemetry on — at two worker/shard settings and fails unless table
// output and every artifact are byte-identical: the sweep JSON, the
// serving-analysis aggregate, and the per-runtime serving Chrome
// trace, metrics snapshot and TTFT/TPOT decomposition. Iteration-level
// scheduling over the paged KV allocator may never let the shard
// schedule change results, and neither may tracing. Every artifact
// must parse as JSON and every *.serving.json must carry the
// decomposition schema; warn-only benchdiff passes over the two
// sweeps' BENCH_serving.json and BENCH_serving_analysis.json prove
// the regression gate reads both serving artifacts cleanly.
func servingDeterminism() error {
	tmp, err := os.MkdirTemp("", "ci-serving-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var outs [][]byte
	var artifacts []map[string][]byte
	for _, workers := range []string{"1", "4"} {
		dir := filepath.Join(tmp, "p"+workers)
		cmd := exec.Command("go", "run", "./cmd/ligerbench",
			"-exp", "serving", "-quick", "-batches", "25", "-seed", "5",
			"-parallel", workers, "-shards", workers, "-json", dir, "-trace-dir", dir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("-parallel %s: %v", workers, err)
		}
		outs = append(outs, stripTracedLines(stripTimingLines(out)))
		files, err := readArtifacts(dir)
		if err != nil {
			return err
		}
		// Sweep JSON + analysis aggregate + a trace/metrics/serving
		// triple per runtime.
		if len(files) < 11 {
			return fmt.Errorf("-parallel %s: %d artifacts in %s, want >= 11", workers, len(files), dir)
		}
		artifacts = append(artifacts, files)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return fmt.Errorf("serving table differs between -parallel 1 and -parallel 4 -shards 4")
	}
	for name, buf := range artifacts[0] {
		other, ok := artifacts[1][name]
		if !ok {
			return fmt.Errorf("%s missing from the -parallel 4 run", name)
		}
		if !bytes.Equal(buf, other) {
			return fmt.Errorf("%s differs between -parallel 1 and -parallel 4 -shards 4", name)
		}
		var doc any
		if err := json.Unmarshal(buf, &doc); err != nil {
			return fmt.Errorf("%s is not valid JSON: %v", name, err)
		}
		if strings.HasSuffix(name, ".serving.json") {
			if err := checkServingSchema(name, doc); err != nil {
				return err
			}
		}
	}
	for _, artifact := range []string{"BENCH_serving.json", "BENCH_serving_analysis.json"} {
		cmd := exec.Command("go", "run", "./tools/benchdiff", "-warn",
			filepath.Join(tmp, "p1", artifact),
			filepath.Join(tmp, "p4", artifact))
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("benchdiff %s: %v", artifact, err)
		}
	}
	return nil
}

// checkServingSchema validates a serving_*.serving.json decomposition
// artifact: the analyzer's top-level keys must be present, and every
// request's segments must sum exactly to its measured total latency —
// the decomposition's defining invariant, checked here at the artifact
// boundary so a drifting writer cannot ship a silently broken report.
func checkServingSchema(name string, doc any) error {
	obj, ok := doc.(map[string]any)
	if !ok {
		return fmt.Errorf("%s: not a JSON object", name)
	}
	for _, key := range []string{"requests", "segment_ns", "pools", "imbalance", "episodes", "counters"} {
		if _, ok := obj[key]; !ok {
			return fmt.Errorf("%s: missing %q", name, key)
		}
	}
	reqs, ok := obj["requests"].([]any)
	if !ok || len(reqs) == 0 {
		return fmt.Errorf("%s: no requests in decomposition", name)
	}
	for _, rq := range reqs {
		r, ok := rq.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: malformed request entry", name)
		}
		total, _ := r["total_ns"].(float64)
		segs, _ := r["segment_ns"].(map[string]any)
		var sum float64
		for _, v := range segs {
			f, _ := v.(float64)
			sum += f
		}
		if sum != total {
			return fmt.Errorf("%s: request %v segments sum to %.0f, total %.0f", name, r["seq"], sum, total)
		}
	}
	return nil
}

// scenarioAcceptance is the robustness gate: the whole corpus must
// pass its assertions, the negative fixtures must fail, and one
// scenario's report must be byte-identical across -parallel/-shards.
func scenarioAcceptance() error {
	corpus, err := filepath.Glob(filepath.Join("scenarios", "*.yaml"))
	if err != nil {
		return err
	}
	if len(corpus) < 9 {
		return fmt.Errorf("only %d corpus files in scenarios/ (want >= 9)", len(corpus))
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/ligersim", "run", "-q"}, corpus...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("corpus: %v", err)
	}
	// The negative fixtures must be rejected: exit status 1, no other
	// error. A passing impossible-slo means the assertion engine is
	// vacuous; a passing no-spare-capacity means a fleet with nothing
	// to fail over to would count as surviving a node loss.
	for _, fixture := range []string{"impossible-slo.yaml", "no-spare-capacity.yaml"} {
		cmd = exec.Command("go", "run", "./cmd/ligersim", "run", "-q",
			filepath.Join("scenarios", "fixtures", fixture))
		out, err := cmd.CombinedOutput()
		if err == nil {
			return fmt.Errorf("%s fixture PASSED; the assertion gate cannot reject\n%s", fixture, out)
		}
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
			return fmt.Errorf("%s fixture: %v\n%s", fixture, err, out)
		}
		if !bytes.Contains(out, []byte("FAIL")) {
			return fmt.Errorf("%s fixture exited 1 without a FAIL verdict:\n%s", fixture, out)
		}
	}
	// Determinism: the flagship chaos scenario, the fleet node-loss
	// scenario, and the continuous-batching scenario must render the
	// same bytes at any -parallel or -shards setting.
	for _, name := range []string{"cascading-failures.yaml", "fleet-node-loss.yaml", "decode-heavy.yaml"} {
		var reports [][]byte
		for _, extra := range [][]string{{"-parallel", "1"}, {"-parallel", "4", "-shards", "4"}} {
			args := append([]string{"run", "./cmd/ligersim", "run"}, extra...)
			args = append(args, filepath.Join("scenarios", name))
			cmd := exec.Command("go", args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s %v: %v", name, extra, err)
			}
			reports = append(reports, out)
		}
		if !bytes.Equal(reports[0], reports[1]) {
			return fmt.Errorf("%s report differs between -parallel 1 and -parallel 4 -shards 4", name)
		}
	}
	return nil
}

// stressSmoke reruns the acceptance-sized stress campaign and fails
// unless the survival report reproduces byte-for-byte, then runs a
// small campaign under the race detector (the harness fans instances
// out across workers).
func stressSmoke() error {
	var outs [][]byte
	for _, workers := range []string{"1", "4"} {
		cmd := exec.Command("go", "run", "./cmd/ligersim",
			"stress", "-n", "25", "-seed", "42", "-parallel", workers)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("-parallel %s: %v", workers, err)
		}
		outs = append(outs, out)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return fmt.Errorf("stress -n 25 -seed 42 report differs between -parallel 1 and -parallel 4")
	}
	cmd := exec.Command("go", "run", "-race", "./cmd/ligersim",
		"stress", "-n", "3", "-seed", "7", "-parallel", "4")
	cmd.Stderr = os.Stderr
	if _, err := cmd.Output(); err != nil {
		return fmt.Errorf("-race stress: %v", err)
	}
	return nil
}

// shardsDeterminism runs the fig10 quick sweep at -shards 0 and
// -shards 4 and fails unless stdout is byte-identical after stripping
// the wall-clock timing lines. Today the single-node shard plan falls
// back to the sequential engine, so this pins the fallback; when a
// multi-domain plan lands, it pins the lookahead invariant.
func shardsDeterminism() error {
	var outs [][]byte
	for _, shards := range []string{"0", "4"} {
		cmd := exec.Command("go", "run", "./cmd/ligerbench",
			"-exp", "fig10", "-quick", "-batches", "25", "-seed", "5", "-shards", shards)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("-shards %s: %v", shards, err)
		}
		outs = append(outs, stripTimingLines(out))
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return fmt.Errorf("fig10 output differs between -shards 0 and -shards 4")
	}
	return nil
}

// stripTimingLines removes the "---- <exp> done in <wall> ----" lines,
// the only output legitimately dependent on host speed.
// stripTracedLines removes the "traced: ..." artifact-pointer lines —
// they embed the output directory, which necessarily differs between
// the two determinism runs.
func stripTracedLines(out []byte) []byte {
	var kept [][]byte
	for _, line := range bytes.Split(out, []byte("\n")) {
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("traced:")) {
			continue
		}
		kept = append(kept, line)
	}
	return bytes.Join(kept, []byte("\n"))
}

func stripTimingLines(out []byte) []byte {
	var kept [][]byte
	for _, line := range bytes.Split(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("---- ")) && bytes.Contains(line, []byte(" done in ")) {
			continue
		}
		kept = append(kept, line)
	}
	return bytes.Join(kept, []byte("\n"))
}

// failoverDeterminism runs the traced failover sweep at two worker
// counts and fails unless both produce byte-identical artifacts — the
// sweep JSON plus every per-runtime Chrome trace and metrics snapshot
// must be a pure function of the seed, never of the parallel schedule.
// Each artifact must also parse as JSON (a malformed trace loads as a
// blank screen in Perfetto, which no test would otherwise notice).
func failoverDeterminism() error {
	tmp, err := os.MkdirTemp("", "ci-failover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var artifacts []map[string][]byte
	for _, workers := range []string{"1", "4"} {
		dir := filepath.Join(tmp, "p"+workers)
		cmd := exec.Command("go", "run", "./cmd/ligerbench",
			"-exp", "failover", "-quick", "-batches", "25", "-seed", "5",
			"-parallel", workers, "-json", dir, "-trace-dir", dir)
		cmd.Stderr = os.Stderr
		if out, err := cmd.Output(); err != nil {
			return fmt.Errorf("-parallel %s: %v\n%s", workers, err, out)
		}
		files, err := readArtifacts(dir)
		if err != nil {
			return err
		}
		if len(files) < 10 { // sweep JSON + a trace/metrics/analysis triple per runtime
			return fmt.Errorf("-parallel %s: %d artifacts in %s, want >= 10", workers, len(files), dir)
		}
		artifacts = append(artifacts, files)
	}
	for name, buf := range artifacts[0] {
		other, ok := artifacts[1][name]
		if !ok {
			return fmt.Errorf("%s missing from the -parallel 4 run", name)
		}
		if !bytes.Equal(buf, other) {
			return fmt.Errorf("%s differs between -parallel 1 and -parallel 4", name)
		}
		var doc any
		if err := json.Unmarshal(buf, &doc); err != nil {
			return fmt.Errorf("%s is not valid JSON: %v", name, err)
		}
	}
	// Warn-only benchdiff pass over the two sweeps' JSON: the artifacts
	// just proved byte-identical, so this asserts the regression gate
	// itself runs clean on a no-change diff.
	cmd := exec.Command("go", "run", "./tools/benchdiff", "-warn",
		filepath.Join(tmp, "p1", "BENCH_failover.json"),
		filepath.Join(tmp, "p4", "BENCH_failover.json"))
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchdiff: %v", err)
	}
	return nil
}

// explainDeterminism runs ligersim -explain twice on the same seed and
// fails unless the printed report — critical path, gap table, overlap
// summary, annotated timeline — is byte-identical.
func explainDeterminism() error {
	var outs [][]byte
	for i := 0; i < 2; i++ {
		cmd := exec.Command("go", "run", "./cmd/ligersim",
			"-runtime", "Liger", "-batches", "20", "-rate", "20", "-explain")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %v", i, err)
		}
		outs = append(outs, out)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return fmt.Errorf("ligersim -explain output differs between identical runs")
	}
	return nil
}

// readArtifacts loads every regular file of dir by name.
func readArtifacts(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = buf
	}
	return out, nil
}

// gofmtCheck fails when any Go source file under the repo is not
// gofmt-formatted, listing the offenders.
func gofmtCheck() error {
	out, err := exec.Command("gofmt", "-l", ".").CombinedOutput()
	if err != nil {
		return fmt.Errorf("%v: %s", err, out)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		return fmt.Errorf("files need gofmt:\n%s", files)
	}
	return nil
}
