package scenario

import (
	"fmt"
	"time"

	"liger/internal/cluster"
	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/generate"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/runner"
	"liger/internal/serve"
	"liger/internal/stats"
	"liger/internal/trace"
)

// RunOptions tune execution: a scenario's report is byte-identical at
// any Parallel or Shards setting. The remaining fields reach what a
// scenario file cannot say; ligersim's flag modes set them.
type RunOptions struct {
	// Parallel is the worker count for the per-runtime fan-out
	// (runner.Map semantics: <= 1 is serial).
	Parallel int
	// Shards is the worker count of the sharded executor that fleet and
	// disaggregated runs use (<= 1 is serial). A single-node run is one
	// shard and ignores it (docs/PERF.md).
	Shards int
	// Liger replaces the node's default Liger configuration.
	Liger *liger.Config
	// Arrivals replaces the trace a batch workload would generate.
	Arrivals []serve.Arrival
	// Disagg serves a continuous workload on disaggregated prefill and
	// decode pools instead of one node.
	Disagg *DisaggPools
	// Trace arms the run's recorder: a trace.Recorder on a single-node
	// batch run, a trace.ServingRecorder in every other mode.
	Trace bool
	// Journal keeps the last Journal Liger scheduling rounds of a
	// single-node batch run.
	Journal int
}

// DisaggPools sizes the prefill and decode pools of a disaggregated
// run and names the network its KV handoffs cross.
type DisaggPools struct {
	Prefill, Decode int
	Network         hw.NetworkSpec
}

// Outcome is one runtime's run: the serving result plus what a
// renderer reads beyond it.
type Outcome struct {
	Result serve.Result
	// Engine is a batch run's single node.
	Engine *core.Engine
	// Recorder and Serving hold the run's telemetry (RunOptions.Trace).
	Recorder *trace.Recorder
	Serving  *trace.ServingRecorder
	// KVTransfers and KVTransferBytes total a disaggregated run's
	// prefill-to-decode handoffs.
	KVTransfers     int
	KVTransferBytes int64
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
// selects. Liger runs with degradation-aware re-planning enabled — the
// robustness subsystem the corpus exists to exercise; on a healthy node
// it changes nothing.
func RunOne(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	run := runBatch
	switch {
	case opts.Disagg != nil:
		run = runDisagg
	case c.Cluster != nil:
		run = runFleet
	case c.Continuous != nil:
		run = runContinuous
	}
	out, err := run(c, kind, opts)
	if err != nil {
		return nil, err
	}
	out.Result.Scenario = c.Scenario.Name
	return out, nil
}

// engineOptions is the one place a run's engine options and Liger
// configuration are set up.
func (c *Compiled) engineOptions(kind core.RuntimeKind, opts RunOptions) core.Options {
	eo := core.Options{Node: c.Node, Model: c.Model, Runtime: kind}
	if kind == core.KindLiger {
		eo.Liger = liger.DefaultConfig(c.Node.Name)
		if opts.Liger != nil {
			eo.Liger = *opts.Liger
		}
		eo.Liger.DegradationAware = true
		eo.LigerSet = true
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

// arrivalTrace returns the batch trace to serve: RunOptions.Arrivals, or
// the one the workload generates.
func (c *Compiled) arrivalTrace(opts RunOptions) ([]serve.Arrival, error) {
	if opts.Arrivals != nil {
		return opts.Arrivals, nil
	}
	return serve.Generate(c.Trace)
}

// runBatch serves a batch workload on one node.
func runBatch(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	eo := c.engineOptions(kind, opts)
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
	arrivals, err := c.arrivalTrace(opts)
	if err != nil {
		return nil, err
	}
	if out.Result, err = eng.ServePolicy(arrivals, c.Policy); err != nil {
		return nil, err
	}
	return out, nil
}

// runContinuous serves a continuous-mode workload on one node:
// iteration-level generative scheduling through serve.ContinuousBatcher,
// optionally gated by a KV allocator.
func runContinuous(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	eng, err := core.NewEngine(c.engineOptions(kind, opts))
	if err != nil {
		return nil, err
	}
	out := &Outcome{}
	plan := c.Continuous
	ccfg := generate.ContinuousConfig{
		Sequences:  plan.Sequences,
		RatePerSec: c.Rate,
		PromptLen:  plan.Prompt,
		GenTokens:  plan.Gen,
		MaxPool:    plan.Pool,
		Seed:       c.Scenario.Workload.Seed,
	}
	if opts.Trace {
		out.Serving = trace.NewServingRecorder()
		ccfg.Tracer = out.Serving
	}
	var paged *kvcache.PagedManager
	if plan.KV {
		if paged, err = kvcache.NewPaged(c.Node, c.Model, plan.Pool, plan.Prompt+plan.Gen, plan.pagedConfig()); err != nil {
			return nil, fmt.Errorf("kv: %w", err)
		}
		if out.Serving != nil {
			paged.SetTracer(out.Serving, eng.Clock().Now)
		}
		ccfg.KV = paged
	}
	cres, err := generate.RunContinuous(eng.Clock(), eng.Runtime(), ccfg)
	if err != nil {
		return nil, err
	}
	out.Result = continuousResult(kind, cres)
	if paged != nil {
		out.Result.KVPeakBlocks = paged.PeakUsedBlocks()
	}
	return out, nil
}

// runDisagg serves a continuous-mode workload on disaggregated prefill
// and decode pools, each decode node over its own paged KV cache.
func runDisagg(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	plan := c.Continuous
	if plan == nil {
		return nil, fmt.Errorf("disagg: needs workload.mode: continuous")
	}
	eo := c.engineOptions(kind, opts)
	d, err := cluster.NewDisagg(cluster.DisaggConfig{
		Node:         c.Node,
		Network:      opts.Disagg.Network,
		PrefillNodes: opts.Disagg.Prefill,
		DecodeNodes:  opts.Disagg.Decode,
		Model:        c.Model,
		Runtime:      kind,
		Liger:        eo.Liger,
		LigerSet:     eo.LigerSet,
		Sequences:    plan.Sequences,
		RatePerSec:   c.Rate,
		PromptLen:    plan.Prompt,
		GenTokens:    plan.Gen,
		MaxPool:      plan.Pool,
		KV:           plan.pagedConfig(),
		Seed:         c.Scenario.Workload.Seed,
		Workers:      opts.Shards,
		Trace:        opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	dres, err := d.Run()
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Result: continuousResult(kind, generate.ContinuousResult{
			Result:           dres.Result,
			Iterations:       dres.Iterations,
			MeanPool:         dres.MeanPool,
			Preemptions:      dres.Preemptions,
			RecomputedTokens: dres.RecomputedTokens,
			Makespan:         dres.Makespan,
		}),
		Serving:         d.ServingTrace(),
		KVTransfers:     dres.KVTransfers,
		KVTransferBytes: dres.KVTransferBytes,
	}
	out.Result.KVPeakBlocks = dres.KVPeakBlocks
	return out, nil
}

// pagedConfig is the plan's paged KV allocator configuration.
func (p *ContinuousPlan) pagedConfig() kvcache.PagedConfig {
	return kvcache.PagedConfig{BlockTokens: p.Block, Watermark: p.Watermark}
}

// continuousResult lands generative latencies in the serve.Result
// shape the assertions read: Latencies holds the per-sequence
// end-to-end times, TTFT/TPOT/Preemptions the continuous metrics.
func continuousResult(kind core.RuntimeKind, cres generate.ContinuousResult) serve.Result {
	pcts := stats.Percentiles(cres.Total, 50, 95, 99)
	return serve.Result{
		Runtime:          kind.String(),
		Completed:        cres.Conversations,
		Requests:         cres.Conversations,
		Latencies:        cres.Total,
		AvgLatency:       stats.Mean(cres.Total),
		P50:              pcts[0],
		P95:              pcts[1],
		P99:              pcts[2],
		Makespan:         cres.Makespan,
		TTFT:             cres.AvgTTFT(),
		TPOT:             cres.AvgTPOT(),
		Preemptions:      cres.Preemptions,
		Continuous:       true,
		RecomputedTokens: cres.RecomputedTokens,
		Iterations:       cres.Iterations,
		MeanPool:         cres.MeanPool,
	}
}

// runFleet serves the scenario on one runtime replicated across the
// cluster, with the health-aware router in front. The shards knob maps
// onto the fleet executor's worker count — results are byte-identical
// at any setting.
func runFleet(c *Compiled, kind core.RuntimeKind, opts RunOptions) (*Outcome, error) {
	eo := c.engineOptions(kind, opts)
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
	arrivals, err := c.arrivalTrace(opts)
	if err != nil {
		return nil, err
	}
	out := &Outcome{}
	rp := serve.RouterPolicy{Hedge: c.Hedge, Seed: c.Scenario.Workload.Seed}
	if opts.Trace {
		out.Serving = trace.NewServingRecorder()
		rp.Tracer = out.Serving
	}
	if out.Result, err = serve.RunFleet(f, arrivals, c.Policy, rp); err != nil {
		return nil, err
	}
	return out, nil
}

// buildReport evaluates assertions over the per-runtime results.
func buildReport(c *Compiled, results []serve.Result) (*Report, error) {
	rep := &Report{
		Scenario:    c.Scenario.Name,
		Description: c.Scenario.Description,
		Node:        c.Node.Name,
		GPUs:        c.Node.NumGPUs,
		Model:       c.Model.Name,
		Seed:        c.Scenario.Workload.Seed,
		Batches:     c.Trace.Batches,
		Rate:        c.Rate,
		Process:     c.Trace.Process.String(),
		Horizon:     c.Horizon,
		Solo:        c.Solo,
		Compiled:    c,
		Results:     results,
		Pass:        true,
	}
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

// Report is the end-of-run artifact: per-runtime serving results plus
// the evaluated assertions. Rendering is deterministic in both forms.
type Report struct {
	Scenario    string
	Description string
	Node        string
	GPUs        int
	Model       string
	Seed        int64
	Batches     int
	Rate        float64
	Process     string
	Horizon     time.Duration
	Solo        time.Duration
	Compiled    *Compiled
	Results     []serve.Result
	Assertions  []AssertionResult
	Pass        bool
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
