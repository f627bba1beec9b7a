package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/runner"
	"liger/internal/scenario"
	"liger/internal/serve"
)

// The experiments in this file extend the paper's evaluation: runtime
// consequences of the Fig. 9 decomposition choice, behaviour under
// non-constant arrival processes (the paper uses a constant rate and
// notes the choice), and the adaptive contention factor extension.

// RunSplitStrategy ablates the runtime GEMM decomposition strategy:
// the scheduler serves the same trace with vertical (Liger's choice)
// and horizontal decomposition. Horizontal pieces of the already-skinny
// activation are so inefficient that overlapping them costs more than
// they fill.
func RunSplitStrategy(cfg RunConfig, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "GEMM decomposition\tavg lat\tp99 lat\tthroughput")
	for _, strat := range []struct {
		name string
		s    parallel.SplitStrategy
	}{
		{"vertical (Fig. 9 choice)", parallel.SplitVertical},
		{"horizontal", parallel.SplitHorizontal},
	} {
		_, res, err := serveLigerEngine(a100Panel(), 1.3, cfg, core.Options{
			CompilerOptions: []parallel.Option{parallel.WithGEMMSplit(strat.s)},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\n", strat.name, fmtDur(res.AvgLatency), fmtDur(res.P99), res.ThroughputBatches())
	}
	fmt.Fprintln(tw, "\npaper (Fig. 9): dividing the skinny activation horizontally loses data locality; vertical division wins")
	return tw.Flush()
}

// serveLigerEngine serves the panel's trace at relRate times its
// intra-op capacity on a Liger engine built outside the scenario run
// path, for the ablations of engine knobs a scenario does not carry
// (compiler options, NCCL channels, adaptive contention). The node,
// model and trace still come from the compiled scenario; opts supplies
// the rest.
func serveLigerEngine(p panel, relRate float64, cfg RunConfig, opts core.Options) (*core.Engine, serve.Result, error) {
	c, err := compile(p.scenario(scenario.RelRate(relRate), cfg))
	if err != nil {
		return nil, serve.Result{}, err
	}
	opts.Node, opts.Model, opts.Runtime = c.Node, c.Model, core.KindLiger
	eng, err := core.NewEngine(opts)
	if err != nil {
		return nil, serve.Result{}, err
	}
	trace, err := serve.Generate(c.Trace)
	if err != nil {
		return nil, serve.Result{}, err
	}
	res, err := eng.Serve(trace)
	return eng, res, err
}

// RunRobustness compares the runtimes under the three arrival processes
// at the same mean rate. The paper uses a constant rate and notes that
// its advantage window would widen under fluctuating arrivals; bursty
// arrivals reward runtimes that can absorb several batches at once.
func RunRobustness(cfg RunConfig, w io.Writer) error {
	procs := []string{"constant", "poisson", "bursty"}
	results, err := runner.Map(cfg.Parallel, len(procs)*len(headlineKinds), func(i int) (serve.Result, error) {
		sc := a100Panel().scenario(scenario.RelRate(0.95), cfg)
		sc.Workload.Process = procs[i/len(headlineKinds)]
		return serveScenario(sc, headlineKinds[i%len(headlineKinds)], cfg)
	})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "arrival process\truntime\tavg lat\tp99 lat\tthroughput")
	for pi, proc := range procs {
		for ki, kind := range headlineKinds {
			res := results[pi*len(headlineKinds)+ki]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\n",
				proc, kind, fmtDur(res.AvgLatency), fmtDur(res.P99), res.ThroughputBatches())
		}
	}
	return tw.Flush()
}

// RunAdaptive compares the profiled contention factor against the
// online adaptive extension: the adaptive scheduler should converge to
// a similar factor without offline profiling.
func RunAdaptive(cfg RunConfig, w io.Writer) error {
	nodeKeys := []string{"v100", "a100"}
	modes := []bool{false, true}
	type adaptiveCell struct {
		mode     string
		res      serve.Result
		factor   float64
		overruns int
	}
	results, err := runner.Map(cfg.Parallel, len(nodeKeys)*len(modes), func(i int) (adaptiveCell, error) {
		nodeKey, adaptive := nodeKeys[i/len(modes)], modes[i%len(modes)]
		node, err := hw.Preset(nodeKey)
		if err != nil {
			return adaptiveCell{}, err
		}
		p := panel{nodeKey: nodeKey, node: node, spec: model.OPT30B(), batch: 2, phase: model.Context}
		lcfg := liger.DefaultConfig(nodeKey)
		lcfg.AdaptiveContention = adaptive
		eng, res, err := serveLigerEngine(p, 1.2, cfg, core.Options{Liger: lcfg, LigerSet: true})
		if err != nil {
			return adaptiveCell{}, err
		}
		cell := adaptiveCell{mode: fmt.Sprintf("profiled %.2f", lcfg.ContentionFactor), res: res}
		if adaptive {
			cell.mode = "adaptive"
		}
		if sg, ok := eng.Runtime().(interface{ Scheduler() *liger.Scheduler }); ok {
			st := sg.Scheduler().Stats()
			cell.factor = st.AdaptedFactor
			cell.overruns = st.SecondaryOverruns
		}
		return cell, nil
	})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node\tmode\tavg lat\tthroughput\tfinal factor\toverruns")
	for ni, nodeKey := range nodeKeys {
		for mi := range modes {
			c := results[ni*len(modes)+mi]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%.3f\t%d\n",
				nodeKey, c.mode, fmtDur(c.res.AvgLatency), c.res.ThroughputBatches(), c.factor, c.overruns)
		}
	}
	return tw.Flush()
}
