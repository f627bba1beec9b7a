package scenario

import (
	"cmp"
	"context"
	"fmt"
	"runtime/pprof"

	"liger/internal/cluster"
	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/runner"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// RunOptions tune execution and observation: a scenario's report is
// byte-identical at any Parallel or Shards setting, and the recorders
// never perturb a run. Everything a run serves comes from the scenario.
type RunOptions struct {
	// Parallel is the worker count for the per-runtime fan-out
	// (runner.Map semantics: <= 1 is serial).
	Parallel int
	// Shards is the worker count of the sharded executor that fleet and
	// disaggregated runs use (<= 1 is serial). A single-node run is one
	// shard and ignores it (docs/PERF.md).
	Shards int
	// Trace arms the run's trace.Recorder in every mode: node streams on
	// a single-node batch run, serving streams in every other mode.
	Trace bool
	// Journal keeps the last Journal Liger scheduling rounds of a
	// single-node batch run.
	Journal int
}

// Outcome is one runtime's run: the serving result plus what a
// renderer reads beyond it.
type Outcome struct {
	Result serve.Result
	// Engine is a batch run's single node.
	Engine *core.Engine
	// Recorder holds the run's telemetry (RunOptions.Trace), its
	// serving streams normalized.
	Recorder *trace.Recorder
	// KVTransfers and KVTransferBytes total a disaggregated run's
	// prefill-to-decode handoffs.
	KVTransfers     int
	KVTransferBytes int64
	// records counts the record store a fleet or disaggregated run's
	// nodes share.
	records runtimes.RecordStats
}

// Run serves the compiled scenario on every requested runtime and
// evaluates the assertions. Each runtime is an independent simulation,
// so the fan-out parallelizes; results come back in scenario order.
func Run(c *Compiled, opts RunOptions) (*Report, error) {
	results, err := runner.Map(opts.Parallel, len(c.Kinds), func(i int) (serve.Result, error) {
		out, err := RunOne(c, c.Kinds[i], opts)
		if err != nil {
			return serve.Result{}, err
		}
		return out.Result, nil
	})
	if err != nil {
		return nil, err
	}
	return buildReport(c, results)
}

// RunOne serves the scenario on one runtime with the runner its mode
// selects. The run carries a pprof "runtime" label, so a CPU profile
// splits by runtime (go tool pprof -tags).
func RunOne(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	run := runBatch
	switch {
	case c.Cluster != nil:
		run = runFleet
	case c.Continuous != nil && c.Continuous.Prefill > 0:
		run = runDisagg
	case c.Continuous != nil:
		run = runContinuous
	}
	var out *Outcome
	var err error
	pprof.Do(context.Background(), pprof.Labels("runtime", kind.String()), func(context.Context) {
		out, err = run(c, kind, opts)
	})
	if err != nil {
		return nil, err
	}
	out.Result.Scenario = c.Scenario.Name
	return out, nil
}

// engineOptions is the one place a run's engine options and Liger
// configuration are set up: the node's Liger defaults, then each
// liger: key the scenario sets. A run with a fault plan serves Liger
// with degradation-aware re-planning, the robustness subsystem the
// corpus exercises; a fault-free run skips its health polling, which
// would change nothing on a healthy node.
func (c *Compiled) engineOptions(kind core.RuntimeKind) core.Options {
	eo := core.Options{Node: c.Node, Model: c.Model, Runtime: kind}
	if kind == core.KindLiger {
		l, cfg := c.Scenario.Liger, liger.DefaultConfig(c.Node.Name)
		if l.Sync != "" {
			cfg.Sync = syncModes[l.Sync]
		}
		cfg.ContentionFactor = cmp.Or(l.ContentionFactor, cfg.ContentionFactor)
		cfg.DivisionFactor = cmp.Or(l.DivisionFactor, cfg.DivisionFactor)
		cfg.MaxInflight = cmp.Or(l.Inflight, cfg.MaxInflight)
		cfg.DegradationAware = !c.Schedule.Empty()
		eo.Liger, eo.LigerSet = cfg, true
	}
	return eo
}

// faultPlan returns the compiled fault schedule, or nil when it is
// empty. Only batch and fleet runs inject faults.
func (c *Compiled) faultPlan() *faults.Schedule {
	if c.Schedule.Empty() {
		return nil
	}
	sched := c.Schedule
	return &sched
}

// arrivalTrace returns the batch trace to serve: the workload.arrivals
// file, or the one the workload generates.
func (c *Compiled) arrivalTrace() ([]serve.Arrival, error) {
	if c.Arrivals != nil {
		return c.Arrivals, nil
	}
	return serve.Generate(c.Trace)
}

// runBatch serves a batch workload on one node.
func runBatch(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	eo := c.engineOptions(kind)
	eo.Faults = c.faultPlan()
	out := &Outcome{}
	if opts.Trace {
		out.Recorder = trace.NewRecorder()
		eo.Tracer = out.Recorder
	}
	eng, err := core.NewEngine(eo)
	if err != nil {
		return nil, err
	}
	out.Engine = eng
	if lg, ok := eng.Runtime().(interface{ Scheduler() *liger.Scheduler }); ok && opts.Journal > 0 {
		lg.Scheduler().EnableJournal(opts.Journal)
	}
	arrivals, err := c.arrivalTrace()
	if err != nil {
		return nil, err
	}
	if out.Result, err = eng.ServePolicy(arrivals, c.Policy); err != nil {
		return nil, err
	}
	return out, nil
}

// runContinuous serves a continuous-mode workload on one node: one
// serve.DecodeNode fed straight from the arrivals, and the run's
// serve.Ledger.
func runContinuous(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	eng, err := core.NewEngine(c.engineOptions(kind))
	if err != nil {
		return nil, err
	}
	out := &Outcome{}
	if opts.Trace {
		out.Recorder = trace.NewRecorder()
	}
	w := c.sequenceWorkload()
	ledger := serve.NewLedger(w.Sequences, w.GenTokens)
	node, err := serve.NewDecodeNode(eng.Clock(), eng.Runtime(), serve.DecodeNodeConfig{
		Node:             c.Node,
		Model:            c.Model,
		SequenceWorkload: w,
		KV:               c.Continuous.pagedConfig(),
		Recorder:         out.Recorder,
		Hooks:            ledger.Hooks(),
	})
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	if testHookDecodeNode != nil {
		testHookDecodeNode(eng, node)
	}
	w.Arrive(eng.Clock(), func(id int, now simclock.Time) {
		ledger.Arrive(id, now)
		node.Add(id, false, now)
	})
	eng.Clock().Run()
	if out.Result, err = ledger.Result(eng.Runtime().Name(), node); err != nil {
		return nil, err
	}
	if out.Recorder != nil {
		out.Recorder.Normalize()
	}
	return out, nil
}

// testHookDecodeNode, when set by a test, sees a single-node run's
// engine and decode node before the first arrival.
var testHookDecodeNode func(*core.Engine, *serve.DecodeNode)

// runDisagg serves a continuous-mode workload on disaggregated prefill
// and decode pools, each decode node over its own paged KV cache.
func runDisagg(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	plan := c.Continuous
	eo := c.engineOptions(kind)
	d, err := cluster.NewDisagg(cluster.DisaggConfig{
		Node:             c.Node,
		Network:          plan.Network,
		PrefillNodes:     plan.Prefill,
		DecodeNodes:      plan.Decode,
		Model:            c.Model,
		Runtime:          kind,
		Liger:            eo.Liger,
		LigerSet:         eo.LigerSet,
		SequenceWorkload: c.sequenceWorkload(),
		KV:               plan.pagedConfig(),
		Workers:          opts.Shards,
		Trace:            opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{}
	if out.Result, err = d.Run(); err != nil {
		return nil, err
	}
	out.Recorder = d.ServingTrace()
	out.KVTransfers, out.KVTransferBytes = d.Handoffs()
	out.records = d.RecordStats()
	return out, nil
}

// sequenceWorkload is the continuous plan's generative workload.
func (c *Compiled) sequenceWorkload() serve.SequenceWorkload {
	p := c.Continuous
	return serve.SequenceWorkload{
		Sequences: p.Sequences, RatePerSec: c.Rate, PromptLen: p.Prompt, GenTokens: p.Gen,
		MaxPool: p.Pool, Seed: c.Scenario.Workload.Seed,
	}
}

// pagedConfig is the plan's paged KV allocator configuration.
func (p *ContinuousPlan) pagedConfig() kvcache.PagedConfig {
	return kvcache.PagedConfig{BlockTokens: p.Block, Watermark: p.Watermark}
}

// runFleet serves the scenario on one runtime replicated across the
// cluster, with the health-aware router in front. The shards knob maps
// onto the fleet executor's worker count — results are byte-identical
// at any setting.
func runFleet(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	eo := c.engineOptions(kind)
	f, err := cluster.New(cluster.Config{
		Cluster:  *c.Cluster,
		Model:    c.Model,
		Runtime:  kind,
		Liger:    eo.Liger,
		LigerSet: eo.LigerSet,
		Faults:   c.faultPlan(),
		Probe:    c.Probe,
		Workers:  opts.Shards,
	})
	if err != nil {
		return nil, err
	}
	arrivals, err := c.arrivalTrace()
	if err != nil {
		return nil, err
	}
	out := &Outcome{}
	rp := serve.RouterPolicy{Hedge: c.Hedge, Seed: c.Scenario.Workload.Seed}
	if opts.Trace {
		out.Recorder = trace.NewRecorder()
		rp.Tracer = out.Recorder
	}
	if out.Result, err = serve.RunFleet(f, arrivals, c.Policy, rp); err != nil {
		return nil, err
	}
	out.records = f.RecordStats()
	if out.Recorder != nil {
		out.Recorder.Normalize()
	}
	return out, nil
}

// buildReport evaluates assertions over the per-runtime results.
func buildReport(c *Compiled, results []serve.Result) (*Report, error) {
	rep := &Report{Scenario: c.Scenario.Name, Compiled: c, Results: results, Pass: true}
	byName := make(map[string]serve.Result, len(results))
	for _, r := range results {
		byName[r.Runtime] = r
	}
	ctx := evalContext{results: byName, horizon: c.Horizon, solo: c.Solo}
	for _, a := range c.assertions {
		ar, err := a.eval(ctx)
		if err != nil {
			return nil, err
		}
		if !ar.Pass {
			rep.Pass = false
		}
		rep.Assertions = append(rep.Assertions, ar)
	}
	return rep, nil
}

// Report is the end-of-run artifact: the compiled scenario, its
// per-runtime serving results and the evaluated assertions. Rendering
// is deterministic in both forms.
type Report struct {
	Scenario   string
	Compiled   *Compiled
	Results    []serve.Result
	Assertions []AssertionResult
	Pass       bool
}

// Verdict renders the one-line outcome.
func (r *Report) Verdict() string {
	if len(r.Assertions) == 0 {
		return fmt.Sprintf("scenario %s: PASS (no assertions)", r.Scenario)
	}
	passed := 0
	for _, a := range r.Assertions {
		if a.Pass {
			passed++
		}
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("scenario %s: %s (%d/%d assertions)", r.Scenario, verdict, passed, len(r.Assertions))
}
