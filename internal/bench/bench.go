// Package bench regenerates every table and figure of the paper's
// evaluation (§4) on the simulated testbeds. Each experiment prints the
// rows/series the paper reports; EXPERIMENTS.md records paper-vs-
// measured numbers for each.
package bench

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/runner"
	"liger/internal/scenario"
	"liger/internal/serve"
)

// RunConfig controls experiment fidelity.
type RunConfig struct {
	// Batches is the number of batch arrivals per data point. The paper
	// serves 2000 requests per point; the default trades a little noise
	// for tractable simulation time.
	Batches int
	// Quick trims sweeps to a handful of points (used by the Go
	// benchmarks).
	Quick bool
	// Parallel is the worker count of the sweep executor: every
	// (panel, runtime, rate) simulation point is independent, so sweeps
	// fan across Parallel goroutines and collect results by stable job
	// index — output is byte-identical to a serial run. 0 or 1 runs
	// serially; runner.DefaultWorkers() uses every core.
	Parallel int
	// Seed drives trace generation and fault-schedule construction (the
	// straggler and chaos experiments): one seed pins both the arrival
	// process and every fault window, so a seeded run is reproducible
	// end to end.
	Seed int64
	// StragglerDevice is the device index the straggler experiment slows
	// down (bounds-checked against the node size at run time).
	StragglerDevice int
	// CSVDir, when set, receives machine-readable sweep data for the
	// Fig. 10/11/12 panels in addition to the printed tables.
	CSVDir string
	// PlotDir, when set, receives SVG latency/throughput charts of the
	// Fig. 10/11/12 panels (the figures themselves).
	PlotDir string
	// JSONDir, when set, receives machine-readable artifacts: the
	// chaos, failover, fleet and serving sweeps' BENCH_*.json.
	JSONDir string
	// TraceDir, when set, makes the failover and serving experiments
	// re-run one fully traced point per runtime and write a Chrome trace,
	// a metrics snapshot and an analysis for each (see
	// docs/OBSERVABILITY.md).
	TraceDir string
	// Shards is the worker count of the fleet experiment's sharded
	// executor (cluster.Config.Workers; <= 1 runs it serially). Output
	// is byte-identical at any value. Single-node experiments ignore it:
	// a node is one shard (docs/PERF.md).
	Shards int
}

// DefaultRunConfig returns the standard fidelity.
func DefaultRunConfig() RunConfig { return RunConfig{Batches: 150, Seed: 1, StragglerDevice: 2} }

// Experiment regenerates one paper table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig, w io.Writer) error
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: model specifications", RunTable1},
		{"fig3", "Fig. 3: strong scaling of the intra-operator approach", RunFig03},
		{"fig4", "Fig. 4: kernel durations across models and input sizes", RunFig04},
		{"fig6", "Fig. 6: kernel execution order per parallelism (timeline demo)", RunFig06},
		{"fig9", "Fig. 9: GEMM decomposition strategies (vertical vs horizontal)", RunFig09},
		{"fig10", "Fig. 10: latency/throughput vs arrival rate (general tasks)", RunFig10},
		{"fig11", "Fig. 11: generative (incremental sampling) tasks", RunFig11},
		{"fig12", "Fig. 12: strong scaling of serving OPT-30B", RunFig12},
		{"fig13", "Fig. 13: hybrid vs CPU-GPU synchronization", RunFig13},
		{"fig14", "Fig. 14: kernel decomposition division factor", RunFig14},
		{"contention", "§3.5/§4.2: contention factor profiling and ablation", RunContention},
		{"channels", "§3.5 ablation: NCCL channel reduction", RunChannels},
		{"splitstrategy", "extension: runtime GEMM decomposition strategy ablation", RunSplitStrategy},
		{"robustness", "extension: constant vs Poisson vs bursty arrivals", RunRobustness},
		{"adaptive", "extension: online adaptive contention factor", RunAdaptive},
		{"straggler", "extension: failure injection — one slow GPU", RunStraggler},
		{"chaos", "extension: deterministic fault scenarios with deadline/retry serving", RunChaos},
		{"failover", "extension: permanent device failure, re-planning onto survivors, overload protection", RunFailover},
		{"fleet", "extension: whole-node loss in a replicated fleet, router failover onto a spare", RunFleet},
		{"serving", "extension: continuous batching with paged KV — TTFT/TPOT vs arrival rate and pool size", RunServing},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// RunAll runs exps in order and writes the ligerbench report: each
// experiment's output under a "==== <id>: <title> ====" header and
// followed by a "---- <id> done in <wall> ----" timing line.
func RunAll(exps []Experiment, cfg RunConfig, w io.Writer) error {
	for _, e := range exps {
		fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(cfg, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "---- %s done in %v ----\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// StripHostLines removes the only report output that legitimately
// differs between two runs of the same command: the "---- <exp> done in
// <wall> ----" lines, which depend on host speed, and the "traced: ..."
// artifact-pointer lines, which embed the run's output directory.
func StripHostLines(out []byte) []byte {
	var kept [][]byte
	for _, line := range bytes.Split(out, []byte("\n")) {
		timing := bytes.HasPrefix(line, []byte("---- ")) && bytes.Contains(line, []byte(" done in "))
		if timing || bytes.HasPrefix(bytes.TrimSpace(line), []byte("traced:")) {
			continue
		}
		kept = append(kept, line)
	}
	return bytes.Join(kept, []byte("\n"))
}

// panel describes one sub-plot of Fig. 10/11: a model on a node at a
// batch size.
type panel struct {
	label   string
	nodeKey string
	node    hw.Node
	spec    model.Spec
	batch   int
	phase   model.Phase
	ctxLen  int
}

// meanSeq is the midpoint of the paper's 16–128 sequence range.
const meanSeq = 72

// intraCapacity is the intra-operator runtime's analytic saturated
// throughput on the panel's workload (batches/s) — used to center the
// arrival-rate sweep of each panel on its interesting region.
func intraCapacity(p panel) float64 {
	w := model.Workload{Batch: p.batch, Phase: p.phase}
	if p.phase == model.Decode {
		w.CtxLen = p.ctxLen
	} else {
		w.SeqLen = meanSeq
	}
	return parallel.IntraOpCapacity(p.node, p.spec, w)
}

// rateFractions spans from comfortably-below-intra-saturation to beyond
// Liger's (the paper sweeps until past the red line).
func rateFractions(quick bool) []float64 {
	if quick {
		return []float64{0.6, 1.0, 1.4}
	}
	return []float64{0.4, 0.7, 0.9, 1.05, 1.2, 1.4, 1.6}
}

// headlineKinds are the paper's three headline runtimes, the ones every
// extension experiment compares.
var headlineKinds = []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp}

// point is one measured (runtime, rate) result.
type point struct {
	rate float64
	res  serve.Result
}

// panelSweep is one panel's sweep request: every (kind, rate) pair is an
// independent simulation point.
type panelSweep struct {
	p     panel
	rates []float64
	kinds []core.RuntimeKind
}

// runSweeps executes every point of every sweep through the parallel
// executor and returns one result map per sweep, in input order. The job
// list is flattened in deterministic (sweep, kind, rate) order and
// results are collected by index, so the assembled maps are identical to
// the serial nested loops they replace.
func runSweeps(sweeps []panelSweep, cfg RunConfig) ([]map[core.RuntimeKind][]point, error) {
	type job struct {
		sweep int
		kind  core.RuntimeKind
		rate  float64
	}
	var jobs []job
	for si, sw := range sweeps {
		for _, kind := range sw.kinds {
			for _, rate := range sw.rates {
				jobs = append(jobs, job{sweep: si, kind: kind, rate: rate})
			}
		}
	}
	results, err := runner.Map(cfg.Parallel, len(jobs), func(i int) (serve.Result, error) {
		j := jobs[i]
		return runPoint(sweeps[j.sweep].p, j.rate, j.kind, cfg, scenario.LigerSpec{})
	})
	if err != nil {
		return nil, err
	}
	out := make([]map[core.RuntimeKind][]point, len(sweeps))
	for si := range sweeps {
		out[si] = make(map[core.RuntimeKind][]point)
	}
	for i, j := range jobs {
		out[j.sweep][j.kind] = append(out[j.sweep][j.kind], point{rate: j.rate, res: results[i]})
	}
	return out, nil
}

// panelRates spans the panel's arrival-rate sweep: rateFractions of
// its intra-op capacity.
func panelRates(p panel, quick bool) []float64 {
	capacity := intraCapacity(p)
	var rates []float64
	for _, f := range rateFractions(quick) {
		rates = append(rates, f*capacity)
	}
	return rates
}

// runFigure serves every point of every sweep, then prints each panel
// and writes its CSV and SVG under expID. Printing happens after
// collection, so output order is independent of worker count.
func runFigure(expID string, sweeps []panelSweep, cfg RunConfig, w io.Writer) error {
	maps, err := runSweeps(sweeps, cfg)
	if err != nil {
		return err
	}
	for i, sw := range sweeps {
		if err := printPanel(w, sw.p, sw.rates, maps[i]); err != nil {
			return err
		}
		if err := writePanelCSV(cfg, expID, sw.p, sw.rates, maps[i]); err != nil {
			return err
		}
		if err := writePanelSVG(cfg, expID, sw.p, sw.rates, maps[i]); err != nil {
			return err
		}
	}
	return nil
}

// runPanel serves the panel's trace at each rate with each runtime.
func runPanel(p panel, rates []float64, kinds []core.RuntimeKind, cfg RunConfig) (map[core.RuntimeKind][]point, error) {
	maps, err := runSweeps([]panelSweep{{p: p, rates: rates, kinds: kinds}}, cfg)
	if err != nil {
		return nil, err
	}
	return maps[0], nil
}

// runPoint serves one (panel, rate, runtime) configuration with the
// liger: keys l set.
func runPoint(p panel, rate float64, kind core.RuntimeKind, cfg RunConfig, l scenario.LigerSpec) (serve.Result, error) {
	sc := p.scenario(scenario.AbsRate(rate), cfg)
	sc.Liger = l
	return serveScenario(sc, kind, cfg)
}

// a100Panel is the extensions' testbed: OPT-30B on the 4xA100 node at
// batch 2.
func a100Panel() panel {
	return panel{nodeKey: "a100", node: hw.A100Node(), spec: model.OPT30B(), batch: 2, phase: model.Context}
}

// scenario is the panel's serving point at rate: its node, model and
// batch shape, cfg.Batches arrivals of 16–128 tokens drawn from
// cfg.Seed.
func (p panel) scenario(rate scenario.RateSpec, cfg RunConfig) *scenario.Scenario {
	node := scenario.NodeSpec{Preset: p.nodeKey}
	if preset, _ := hw.Preset(p.nodeKey); p.node.NumGPUs != preset.NumGPUs {
		node.GPUs = p.node.NumGPUs
	}
	w := scenario.Workload{Batches: cfg.Batches, Batch: p.batch, Rate: rate, CtxLen: p.ctxLen, Seed: cfg.Seed}
	if p.phase == model.Decode {
		w.Phase = "decode"
	}
	return &scenario.Scenario{Name: cmp.Or(p.label, p.spec.Name), Model: p.spec.Name, Node: node, Workload: w}
}

// compile validates and compiles a scenario built in Go, with the checks
// a scenario file gets.
func compile(sc *scenario.Scenario) (*scenario.Compiled, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return scenario.Compile(sc)
}

// runScenario serves sc on one runtime through the scenario run path,
// the one way every serving point of this package runs.
func runScenario(sc *scenario.Scenario, kind core.RuntimeKind, opts scenario.RunOptions) (*scenario.Outcome, error) {
	c, err := compile(sc)
	if err != nil {
		return nil, err
	}
	return scenario.RunOne(c, kind, opts)
}

// serveScenario is runScenario's serving result, the fleet executor
// sized by cfg.Shards.
func serveScenario(sc *scenario.Scenario, kind core.RuntimeKind, cfg RunConfig) (serve.Result, error) {
	out, err := runScenario(sc, kind, scenario.RunOptions{Shards: cfg.Shards})
	if err != nil {
		return serve.Result{}, err
	}
	return out.Result, nil
}

// saturatedThroughput returns the best throughput a runtime reached
// across its sweep points.
func saturatedThroughput(pts []point) float64 {
	best := 0.0
	for _, pt := range pts {
		if t := pt.res.ThroughputBatches(); t > best {
			best = t
		}
	}
	return best
}

// writeJSON writes v as the named machine-readable artifact into
// cfg.JSONDir when it is set. encoding/json sorts map keys, so the bytes
// are a pure function of v.
func writeJSON(cfg RunConfig, name string, v any) error {
	if cfg.JSONDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.JSONDir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.JSONDir, name), append(buf, '\n'), 0o644)
}

// fmtDur renders a duration at µs precision.
func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

// sortedKinds returns map keys in paper order.
func sortedKinds(m map[core.RuntimeKind][]point) []core.RuntimeKind {
	var ks []core.RuntimeKind
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
