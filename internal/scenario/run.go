package scenario

import (
	"fmt"
	"time"

	"liger/internal/cluster"
	"liger/internal/core"
	"liger/internal/generate"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/runner"
	"liger/internal/serve"
	"liger/internal/stats"
)

// RunOptions tune execution, never results: a scenario's report is
// byte-identical at any Parallel or Shards setting.
type RunOptions struct {
	// Parallel is the worker count for the per-runtime fan-out
	// (runner.Map semantics: <= 1 is serial).
	Parallel int
	// Shards requests lookahead-sharded simulation (honored only when
	// the hardware admits a multi-domain plan; see docs/PERF.md).
	Shards int
}

// Run serves the compiled scenario on every requested runtime and
// evaluates the assertions. Each runtime is an independent simulation,
// so the fan-out parallelizes; results come back in scenario order.
func Run(c *Compiled, opts RunOptions) (*Report, error) {
	results, err := runner.Map(opts.Parallel, len(c.Kinds), func(i int) (serve.Result, error) {
		return runOne(c, c.Kinds[i], opts.Shards)
	})
	if err != nil {
		return nil, err
	}
	return buildReport(c, results)
}

// runOne serves the scenario on one runtime. Liger runs with
// degradation-aware re-planning enabled — the robustness subsystem the
// corpus exists to exercise.
func runOne(c *Compiled, kind core.RuntimeKind, shards int) (serve.Result, error) {
	if c.Cluster != nil {
		return runFleetOne(c, kind, shards)
	}
	if c.Continuous != nil {
		return runContinuousOne(c, kind, shards)
	}
	opts := core.Options{Node: c.Node, Model: c.Model, Runtime: kind, Shards: shards}
	if kind == core.KindLiger {
		lc := liger.DefaultConfig(c.Node.Name)
		lc.DegradationAware = true
		opts.Liger = lc
		opts.LigerSet = true
	}
	if !c.Schedule.Empty() {
		sched := c.Schedule
		opts.Faults = &sched
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		return serve.Result{}, err
	}
	trace, err := serve.Generate(c.Trace)
	if err != nil {
		return serve.Result{}, err
	}
	res, err := eng.ServePolicy(trace, c.Policy)
	if err != nil {
		return res, err
	}
	res.Scenario = c.Scenario.Name
	return res, nil
}

// runContinuousOne serves a continuous-mode scenario on one runtime:
// iteration-level generative scheduling through serve.ContinuousBatcher,
// optionally gated by a KV allocator. The generative latencies land in
// the same serve.Result shape the assertions read — Latencies holds the
// per-sequence end-to-end times, TTFT/TPOT/Preemptions the continuous
// metrics.
func runContinuousOne(c *Compiled, kind core.RuntimeKind, shards int) (serve.Result, error) {
	opts := core.Options{Node: c.Node, Model: c.Model, Runtime: kind, Shards: shards}
	if kind == core.KindLiger {
		lc := liger.DefaultConfig(c.Node.Name)
		lc.DegradationAware = true
		opts.Liger = lc
		opts.LigerSet = true
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		return serve.Result{}, err
	}
	plan := c.Continuous
	var kv serve.KVAllocator
	var paged *kvcache.PagedManager
	if plan.KV {
		if paged, err = kvcache.NewPaged(c.Node, c.Model, plan.Pool, plan.Prompt+plan.Gen, kvcache.PagedConfig{
			BlockTokens: plan.Block,
			Watermark:   plan.Watermark,
		}); err != nil {
			return serve.Result{}, fmt.Errorf("kv: %w", err)
		}
		kv = paged
	}
	cres, err := generate.RunContinuous(eng.Clock(), eng.Runtime(), generate.ContinuousConfig{
		Sequences:  plan.Sequences,
		RatePerSec: c.Rate,
		PromptLen:  plan.Prompt,
		GenTokens:  plan.Gen,
		MaxPool:    plan.Pool,
		KV:         kv,
		Seed:       c.Scenario.Workload.Seed,
	})
	if err != nil {
		return serve.Result{}, err
	}
	pcts := stats.Percentiles(cres.Total, 50, 95, 99)
	res := serve.Result{
		Scenario:         c.Scenario.Name,
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
	if paged != nil {
		res.KVPeakBlocks = paged.PeakUsedBlocks()
	}
	return res, nil
}

// runFleetOne serves the scenario on one runtime replicated across the
// cluster, with the health-aware router in front. The shards knob maps
// onto the fleet executor's worker count — results are byte-identical
// at any setting.
func runFleetOne(c *Compiled, kind core.RuntimeKind, shards int) (serve.Result, error) {
	cfg := cluster.Config{
		Cluster: *c.Cluster,
		Model:   c.Model,
		Runtime: kind,
		Probe:   c.Probe,
		Workers: shards,
	}
	if kind == core.KindLiger {
		lc := liger.DefaultConfig(c.Node.Name)
		lc.DegradationAware = true
		cfg.Liger = lc
		cfg.LigerSet = true
	}
	if !c.Schedule.Empty() {
		sched := c.Schedule
		cfg.Faults = &sched
	}
	f, err := cluster.New(cfg)
	if err != nil {
		return serve.Result{}, err
	}
	trace, err := serve.Generate(c.Trace)
	if err != nil {
		return serve.Result{}, err
	}
	res, err := serve.RunFleet(f, trace, c.Policy, serve.RouterPolicy{
		Hedge: c.Hedge,
		Seed:  c.Scenario.Workload.Seed,
	})
	if err != nil {
		return res, err
	}
	res.Scenario = c.Scenario.Name
	return res, nil
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
