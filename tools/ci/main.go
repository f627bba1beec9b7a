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
//     ./internal/parallel ./internal/faults ./internal/serve
//     ./internal/cluster ./internal/trace ./internal/metrics
//     ./internal/analyze ./internal/kvcache ./internal/generate
//     (the concurrency-bearing packages, including the compiler's
//     shared layer-name table, plus the fault-injection,
//     deadline/retry, fleet, serving-telemetry and observability
//     layers get a dedicated race pass; the Makefile's race target
//     runs the same list)
//  5. go test ./... (full suite), then `go test ./...` inside
//     tools/perf, the benchmark harness's own module
//  6. the benchmark's readings gate: `bash tools/perf/run.sh
//     -workload all -seconds 1 -trace 1` must end every BENCHMARK.json
//     workload with a result line reading correct, with no failed
//     request (the harness checks request conservation, KV block
//     balance, a drained engine and identical reps), and a benchdiff
//     against the committed BENCH_perf.json must find the same metrics,
//     with simclock.events, gpusim.kernels, runtimes.submits and the
//     modeled latency, TTFT and throughput unchanged to the printed
//     digit; host timings and CPU shares only warn. `go run ./tools/ci
//     -perf-baseline` re-records BENCH_perf.json
//  7. a chaos smoke: `ligerbench -exp chaos -quick -json` at a small
//     batch count, at -parallel 1 and 4 — the table and
//     BENCH_robustness.json must be byte-identical (the smoke helper
//     described below), proving the fault scenarios execute end to end
//  8. a failover race pass: the permanent-device-failure paths across
//     gpusim, runtimes, liger, and serve under -race, including the
//     teardown paths of the kernel-instance, event and collective pools
//     (KernelPool and EventPool tests) and of Liger batch reuse
//     (ReleasedBatch)
//  9. an observability race pass: the tracer hook, dependency-edge
//     emission, per-request decomposition, the interval algebra,
//     trace-analysis, and metrics-export paths under -race
//  10. a replay race pass: iteration replay's start-instant proof and
//     its layer-count proof (TestSoloIterationIsLayerAffine), the
//     differential of records synthesized from 1-, 2- and 3-layer
//     probes against fully simulated ones
//     (TestSynthesizedRecordsMatchSimulation), the divergence check and
//     refusals of probe nodes that fold the lead (TestLeadFoldDiverges,
//     TestLeadFoldRefusals), replay's differential
//     against the simulation (the FuzzContinuousReplay seeds,
//     TestContinuousReplayEngages, TestReplayFollowsTheRules,
//     TestShardReplayMatchesSimulation on fleet and chained shards at 1
//     and 4 workers, and TestCatchUpAtEveryPosition), the walk that
//     finds every entry point catching a replay up
//     (TestEveryEntryPointCatchesUp), and the engine, executor, node and
//     scheduler primitives it rests on (deferred computations and their
//     catch-ups, the window-independent post order of
//     TestShardedPostOrderIgnoresBarriers, reserved blocks, Drained,
//     Work, the per-plan record, Settled) under -race
//
// Then the determinism smokes. Each runs one command at two settings
// and fails unless stdout (host-dependent lines stripped) and every
// artifact file are byte-identical; artifacts must parse as JSON, and a
// warn-only benchdiff over the named sweep JSONs proves the regression
// gate runs end to end. One table-driven helper (smoke.run) does all of
// it:
//  11. failover: `ligerbench -exp failover -quick -trace-dir` at
//     -parallel 1 and 4 — BENCH_failover.json plus per-runtime Chrome
//     trace/metrics/analysis artifacts (at least 10); the byte-compare
//     of failover_*.analysis.json doubles as the analyzer determinism
//     smoke
//  12. explain: `ligersim -explain` twice on the same seed must print
//     byte-identical critical-path/gap/overlap reports
//  13. fleet: `ligerbench -exp fleet -quick` at -parallel 1 -shards 1
//     and -parallel 4 -shards 4 — tables and BENCH_fleet.json
//  14. serving: `ligerbench -exp serving -quick -trace-dir` (continuous
//     batching over the paged KV allocator) at the same two settings —
//     tables, BENCH_serving.json, BENCH_serving_analysis.json and the
//     per-runtime serving Chrome-trace/metrics/decomposition artifacts
//     (at least 11); every serving_*.serving.json must carry the
//     decomposition schema (requests, segment_ns, pools, imbalance,
//     episodes, counters) and tile each request's latency exactly
//  15. disagg: `ligersim -disagg -model tiny -batches 24 -rate 2000
//     -prompt 32 -gen 8 -pool 8 -prefillnodes 2 -decodenodes 2
//     -serving-report` (prefill and decode pools on the fleet's node
//     table) at -shards 1 and -shards 4 — results and the serving
//     decomposition
//  16. continuous: `ligersim -continuous -model tiny -batches 24 -rate
//     2000 -prompt 32 -gen 8 -pool 8 -serving-report` (continuous
//     batching over the paged KV cache, lowered onto the scenario
//     runner) twice on the same seed
//  17. fleet CLI: `ligersim -nodes 3 -spares 1` (replicas behind the
//     router, lowered onto the scenario runner) at -shards 1 and
//     -shards 4
//  18. scenario acceptance: every scenarios/*.yaml must PASS its
//     assertions, the impossible-slo and no-spare-capacity negative
//     fixtures must FAIL (exit 1) — a gate that cannot reject is not a
//     gate — and `scenarios/cascading-failures.yaml`,
//     `scenarios/fleet-node-loss.yaml`, and `scenarios/decode-heavy.yaml`
//     (the continuous-batching corpus entry) must print byte-identical
//     reports at -parallel 1 and -parallel 4 -shards 4
//  19. stress: `ligersim stress -n 25 -seed 42` at -parallel 1 and 4
//     must produce byte-identical aggregate survival reports, plus a
//     small -race pass (`stress -n 3 -seed 7`) over the randomized fleet
//  20. paper reproduction (`make paper`): bench's TestPaperFull reruns
//     every results_full.txt section at -batches 200 and byte-compares
//     it with the file, timing lines stripped
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"liger/internal/bench"
)

// gate is one named check of the sequence.
type gate struct {
	name string
	run  func() error
}

// command returns a gate body that runs args with the gate's output
// streamed to the console.
func command(args ...string) func() error {
	return func() error {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		return cmd.Run()
	}
}

// ligerbench and ligersim return a `go run` command line for the CLI.
func ligerbench(args ...string) []string {
	return append([]string{"go", "run", "./cmd/ligerbench"}, args...)
}

func ligersim(args ...string) []string {
	return append([]string{"go", "run", "./cmd/ligersim"}, args...)
}

// parallelShards are the worker/shard settings of the sharded sweeps.
var parallelShards = [2][]string{{"-parallel", "1", "-shards", "1"}, {"-parallel", "4", "-shards", "4"}}

// shardsOneFour are the two settings of the ligersim determinism smokes.
var shardsOneFour = [2][]string{{"-shards", "1"}, {"-shards", "4"}}

func main() {
	baseline := flag.Bool("perf-baseline", false, "run the perf harness once, write its readings to BENCH_perf.json and exit")
	flag.Parse()
	if *baseline {
		doc, err := perfReadings()
		if err == nil {
			err = writePerf("BENCH_perf.json", doc)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "FAIL perf baseline:", err)
			os.Exit(1)
		}
		return
	}
	gates := []gate{
		{"gofmt", gofmtCheck},
		{"go vet", command("go", "vet", "./...")},
		{"go build", command("go", "build", "./...")},
		{"race (runner, simclock, parallel, faults, serve, cluster, trace, metrics, analyze, kvcache, generate)", command("go", "test", "-race",
			"./internal/runner", "./internal/simclock", "./internal/parallel", "./internal/faults", "./internal/serve",
			"./internal/cluster", "./internal/trace", "./internal/metrics", "./internal/analyze",
			"./internal/kvcache", "./internal/generate")},
		{"go test", command("go", "test", "./...")},
		// tools/perf is a module of its own, so the root test run above
		// does not reach its tests.
		{"perf harness tests", command("go", "-C", "tools/perf", "test", "./...")},
		{"benchmark readings", benchmarkReadings},
		{"chaos smoke", smoke{
			what:         "chaos table",
			args:         ligerbench("-exp", "chaos", "-quick", "-batches", "25", "-seed", "5"),
			runs:         [2][]string{{"-parallel", "1"}, {"-parallel", "4"}},
			dirFlags:     []string{"-json"},
			minArtifacts: 1,
			benchdiff:    []string{"BENCH_robustness.json"},
		}.run},
		{"failover race", command("go", "test", "-race",
			"-run", "Failover|FailDevice|Drain|Backoff|Quiesce|KernelPool|EventPool|ReleasedBatch",
			"./internal/gpusim", "./internal/runtimes", "./internal/liger", "./internal/serve")},
		{"observability race", command("go", "test", "-race",
			"-run", "Observability|ChromeTrace|Tracer|Truncated|Rendezvous|ReqBreakdown|RequestID|PerRequest|Percentiles|FromRun|WriteJSON|Dep|CriticalPath|Gap|Overlap|Window|Determinism|Timeline|Interval",
			"./internal/trace", "./internal/metrics", "./internal/gpusim",
			"./internal/runtimes", "./internal/serve", "./internal/stats",
			"./internal/analyze")},
		{"replay race", command("go", "test", "-race",
			"-run", "SoloIteration|Synthesized|ContinuousReplay|ReplayFollows|ShardReplay|CatchUp|EveryEntryPoint|Defer|PostOrder|InReserved|ShardEngines|DrainedAndWork|ReplayRecord|Settled|LeadFold",
			"./internal/runtimes", "./internal/simclock", "./internal/gpusim", "./internal/liger")},
		{"failover smoke", smoke{
			what: "failover sweep",
			args: ligerbench("-exp", "failover", "-quick", "-batches", "25", "-seed", "5"),
			runs: [2][]string{{"-parallel", "1"}, {"-parallel", "4"}},
			// Sweep JSON + a trace/metrics/analysis triple per runtime.
			dirFlags:     []string{"-json", "-trace-dir"},
			minArtifacts: 10,
			benchdiff:    []string{"BENCH_failover.json"},
		}.run},
		{"explain smoke", smoke{
			what: "ligersim -explain output",
			args: ligersim("-runtime", "Liger", "-batches", "20", "-rate", "20", "-explain"),
		}.run},
		{"fleet smoke", smoke{
			what:         "fleet table",
			args:         ligerbench("-exp", "fleet", "-quick", "-batches", "25", "-seed", "5"),
			runs:         parallelShards,
			dirFlags:     []string{"-json"},
			minArtifacts: 1,
			benchdiff:    []string{"BENCH_fleet.json"},
		}.run},
		{"serving smoke", smoke{
			what: "serving table",
			args: ligerbench("-exp", "serving", "-quick", "-batches", "25", "-seed", "5"),
			runs: parallelShards,
			// Sweep JSON + analysis aggregate + a trace/metrics/serving
			// triple per runtime.
			dirFlags:     []string{"-json", "-trace-dir"},
			minArtifacts: 11,
			benchdiff:    []string{"BENCH_serving.json", "BENCH_serving_analysis.json"},
			check: func(name string, doc any) error {
				if strings.HasSuffix(name, ".serving.json") {
					return checkServingSchema(name, doc)
				}
				return nil
			},
		}.run},
		{"disagg smoke", smoke{
			what: "disaggregated serving report",
			args: ligersim("-disagg", "-model", "tiny", "-batches", "24", "-rate", "2000",
				"-prompt", "32", "-gen", "8", "-pool", "8", "-prefillnodes", "2", "-decodenodes", "2",
				"-serving-report"),
			runs: shardsOneFour,
		}.run},
		{"continuous smoke", smoke{
			what: "continuous serving report",
			args: ligersim("-continuous", "-model", "tiny", "-batches", "24", "-rate", "2000",
				"-prompt", "32", "-gen", "8", "-pool", "8", "-serving-report"),
		}.run},
		{"fleet CLI smoke", smoke{
			what: "ligersim fleet report",
			args: ligersim("-nodes", "3", "-spares", "1"),
			runs: shardsOneFour,
		}.run},
		{"scenario acceptance", scenarioAcceptance},
		{"stress smoke", stressSmoke},
		{"paper reproduction", command("go", "test", "./internal/bench", "-run", "^TestPaperFull$", "-count=1", "-full")},
	}
	for _, g := range gates {
		start := time.Now()
		if err := g.run(); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", g.name, err)
			os.Exit(1)
		}
		fmt.Printf("ok   %s (%v)\n", g.name, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("all checks passed")
}

// smoke is one determinism check: the same command at two settings
// must print the same stdout (host-dependent lines stripped) and write
// byte-identical artifact files.
type smoke struct {
	// what names the stdout in failure messages ("fleet table").
	what string
	// args is the command line both runs share; runs holds each run's
	// extra flags (both empty: the same command twice); tail follows the
	// flags (positional arguments).
	args []string
	runs [2][]string
	tail []string
	// dirFlags each take the run's artifact directory (e.g. -json). With
	// none, the run writes no artifacts.
	dirFlags []string
	// minArtifacts is the least number of files each run must write.
	minArtifacts int
	// benchdiff lists the artifacts a warn-only benchdiff pass reads.
	benchdiff []string
	// check, if set, validates each parsed JSON artifact.
	check func(name string, doc any) error
}

// label names run i in failure messages.
func (s smoke) label(i int) string {
	if len(s.runs[i]) == 0 {
		return fmt.Sprintf("run %d", i)
	}
	return strings.Join(s.runs[i], " ")
}

// between names the pair of runs in failure messages.
func (s smoke) between() string {
	if len(s.runs[0])+len(s.runs[1]) == 0 {
		return "identical runs"
	}
	return s.label(0) + " and " + s.label(1)
}

func (s smoke) run() error {
	tmp, err := os.MkdirTemp("", "ci-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var outs [2][]byte
	var artifacts [2]map[string][]byte
	dirs := [2]string{filepath.Join(tmp, "a"), filepath.Join(tmp, "b")}
	for i := range s.runs {
		args := append(append([]string(nil), s.args...), s.runs[i]...)
		for _, f := range s.dirFlags {
			args = append(args, f, dirs[i])
		}
		args = append(args, s.tail...)
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %v", s.label(i), err)
		}
		outs[i] = bench.StripHostLines(out)
		if len(s.dirFlags) == 0 {
			continue
		}
		if artifacts[i], err = readArtifacts(dirs[i]); err != nil {
			return err
		}
		if n := len(artifacts[i]); n < s.minArtifacts {
			return fmt.Errorf("%s: %d artifacts in %s, want >= %d", s.label(i), n, dirs[i], s.minArtifacts)
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return fmt.Errorf("%s differs between %s", s.what, s.between())
	}
	for name, buf := range artifacts[0] {
		other, ok := artifacts[1][name]
		if !ok {
			return fmt.Errorf("%s missing from the %s run", name, s.label(1))
		}
		if !bytes.Equal(buf, other) {
			return fmt.Errorf("%s differs between %s", name, s.between())
		}
		var doc any
		if err := json.Unmarshal(buf, &doc); err != nil {
			return fmt.Errorf("%s is not valid JSON: %v", name, err)
		}
		if s.check != nil {
			if err := s.check(name, doc); err != nil {
				return err
			}
		}
	}
	// The artifacts just proved byte-identical, so this asserts the
	// regression gate itself runs clean on a no-change diff.
	for _, artifact := range s.benchdiff {
		cmd := exec.Command("go", "run", "./tools/benchdiff", "-warn",
			filepath.Join(dirs[0], artifact), filepath.Join(dirs[1], artifact))
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

// perfCommand is the harness run the benchmark gate reads, and the one
// BENCH_perf.json was recorded from.
var perfCommand = []string{"bash", "tools/perf/run.sh", "-workload", "all", "-seconds", "1", "-trace", "1"}

// perfExact are the readings of a perf run that must match BENCH_perf.json
// exactly: the deterministic counts and the modeled latency, TTFT and
// throughput. Host timings and CPU shares may only warn.
var perfExact = []string{
	"workloads.*.simclock.events", "workloads.*.gpusim.kernels", "workloads.*.runtimes.submits",
	"workloads.*.latency_*", "workloads.*.ttft_*", "workloads.*.throughput_rps",
}

// perfBaseline is the document BENCH_perf.json holds: every metric the
// harness printed, per workload.
type perfBaseline struct {
	Command   string                        `json:"command"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// perfReadings runs the harness and reads its output. Every
// BENCHMARK.json workload must end with a result line reading correct,
// with no failed request (the harness checks request conservation, KV
// block balance, a drained engine and identical reps). The readings are
// the metric table of each workload, overlaid with its result line,
// whose values carry full precision.
func perfReadings() (perfBaseline, error) {
	doc := perfBaseline{Command: strings.Join(perfCommand, " "), Workloads: map[string]map[string]float64{}}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &bench); err != nil {
		return doc, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	cmd := exec.Command(perfCommand[0], perfCommand[1:]...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return doc, fmt.Errorf("tools/perf: %v\n%s%s", err, out, stderr.Bytes())
	}
	// Each workload prints an "== <name> (seed N): ..." header, its
	// metric table ("  <metric> <value> <unit>"), and then its result
	// line.
	results := map[string]bool{}
	var current string
	for _, line := range bytes.Split(out, []byte("\n")) {
		if name, ok := bytes.CutPrefix(line, []byte("== ")); ok {
			current = string(bytes.Fields(name)[0])
			doc.Workloads[current] = map[string]float64{}
			continue
		}
		if f := strings.Fields(string(line)); len(f) == 3 && current != "" && bytes.HasPrefix(line, []byte("  ")) {
			var v float64
			if _, err := fmt.Sscan(f[1], &v); err != nil {
				return doc, fmt.Errorf("%s: metric line %q: %v", current, line, err)
			}
			doc.Workloads[current][f[0]] = v
			continue
		}
		if !bytes.HasPrefix(line, []byte("{")) {
			continue
		}
		var r struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			return doc, fmt.Errorf("%s: result line: %v", current, err)
		}
		if !r.Correct || r.Failed != 0 {
			return doc, fmt.Errorf("%s: result line %s", current, line)
		}
		for name, m := range r.Metrics {
			doc.Workloads[current][name] = m.Value
		}
		results[current] = true
	}
	for _, w := range bench.Workloads {
		if !results[w.Name] {
			return doc, fmt.Errorf("%s: no result line", w.Name)
		}
	}
	return doc, nil
}

// writePerf writes a readings document as indented JSON.
func writePerf(path string, doc perfBaseline) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// benchmarkReadings is the benchmark gate: the harness must read
// correct on every workload, and a benchdiff against BENCH_perf.json
// must find the same metrics with the same deterministic readings.
func benchmarkReadings() error {
	doc, err := perfReadings()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "ci-perf-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cur := filepath.Join(tmp, "perf.json")
	if err := writePerf(cur, doc); err != nil {
		return err
	}
	cmd := exec.Command("go", "run", "./tools/benchdiff", "-warn", "-structure",
		"-exact", strings.Join(perfExact, ","), "BENCH_perf.json", cur)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchdiff BENCH_perf.json (re-record it with `go run ./tools/ci -perf-baseline` only when a change is meant to move a reading): %v", err)
	}
	return nil
}

// scenarioAcceptance is the robustness gate: the whole corpus must
// pass its assertions, the negative fixtures must fail, and three
// scenarios' reports must be byte-identical across -parallel/-shards.
func scenarioAcceptance() error {
	corpus, err := filepath.Glob(filepath.Join("scenarios", "*.yaml"))
	if err != nil {
		return err
	}
	if len(corpus) < 9 {
		return fmt.Errorf("only %d corpus files in scenarios/ (want >= 9)", len(corpus))
	}
	if err := command(ligersim(append([]string{"run", "-q"}, corpus...)...)...)(); err != nil {
		return fmt.Errorf("corpus: %v", err)
	}
	// The negative fixtures must be rejected: exit status 1, no other
	// error. A passing impossible-slo means the assertion engine is
	// vacuous; a passing no-spare-capacity means a fleet with nothing
	// to fail over to would count as surviving a node loss.
	for _, fixture := range []string{"impossible-slo.yaml", "no-spare-capacity.yaml"} {
		args := ligersim("run", "-q", filepath.Join("scenarios", "fixtures", fixture))
		cmd := exec.Command(args[0], args[1:]...)
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
		err := smoke{
			what: "report",
			args: ligersim("run"),
			runs: [2][]string{{"-parallel", "1"}, {"-parallel", "4", "-shards", "4"}},
			tail: []string{filepath.Join("scenarios", name)},
		}.run()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// stressSmoke reruns the acceptance-sized stress campaign and fails
// unless the survival report reproduces byte-for-byte, then runs a
// small campaign under the race detector (the harness fans instances
// out across workers).
func stressSmoke() error {
	err := smoke{
		what: "stress -n 25 -seed 42 report",
		args: ligersim("stress", "-n", "25", "-seed", "42"),
		runs: [2][]string{{"-parallel", "1"}, {"-parallel", "4"}},
	}.run()
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "run", "-race", "./cmd/ligersim",
		"stress", "-n", "3", "-seed", "7", "-parallel", "4")
	cmd.Stderr = os.Stderr
	if _, err := cmd.Output(); err != nil {
		return fmt.Errorf("-race stress: %v", err)
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
