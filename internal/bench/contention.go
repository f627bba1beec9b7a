package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/runner"
	"liger/internal/scenario"
	"liger/internal/serve"
	"liger/internal/trace"
)

// RunContention reproduces the §3.5 methodology and the §4.2 contention
// factors: profile lengthy compute kernels concurrently with
// communication kernels, derive the maximum contention factor per node
// (the paper uses 1.1 on the V100 node and 1.15 on the A100 node), then
// ablate the factor in the scheduler to show why anticipation matters.
func RunContention(cfg RunConfig, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node\tpairs\tmax factor\tcompute factor\tcomm factor\tpaper factor")
	for _, nc := range []struct {
		key   string
		node  hw.Node
		paper float64
	}{
		{"v100", hw.V100Node(), 1.10},
		{"a100", hw.A100Node(), 1.15},
	} {
		comp := parallel.NewCompiler(nc.node, nccl.Config{ReducedChannels: true})
		// Representative lengthy kernels: the per-device GEMMs and
		// all-reduces of one OPT-30B layer at two input sizes.
		var computeKs, commKs []parallel.KernelDesc
		for _, seq := range []int{32, 128} {
			ks, err := comp.IntraOp(model.OPT30B().WithLayers(1), nc.node.NumGPUs,
				model.Workload{Batch: 2, SeqLen: seq, Phase: model.Context})
			if err != nil {
				return err
			}
			for _, k := range ks {
				if k.Collective {
					commKs = append(commKs, k)
				} else if k.CanSplit() { // GEMMs: the lengthy compute kernels
					computeKs = append(computeKs, k)
				}
			}
		}
		rep, err := trace.MeasureContention(nc.node, computeKs, commKs)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.2f\n",
			nc.key, rep.Pairs, rep.MaxFactor, rep.ComputeFactor, rep.CommFactor, nc.paper)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Ablation: scheduling with factor 1.0 lets the secondary subset
	// overrun the primary window under contention, hurting the primary
	// batch's latency (a Principle 1 violation the factor prevents).
	fmt.Fprintln(w, "\nablation: Liger with and without contention anticipation (OPT-30B, V100, batch 2)")
	p := panel{nodeKey: "v100", node: hw.V100Node(), spec: model.OPT30B(), batch: 2, phase: model.Context}
	rate := 1.05 * intraCapacity(p)
	factors := []float64{1.0, 1.1}
	results, err := runner.Map(cfg.Parallel, len(factors), func(i int) (serve.Result, error) {
		return runPoint(p, rate, core.KindLiger, cfg, scenario.LigerSpec{ContentionFactor: factors[i]})
	})
	if err != nil {
		return err
	}
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "contention factor\tavg lat\tp99 lat\tthroughput")
	for i, cf := range factors {
		res := results[i]
		fmt.Fprintf(tw, "%.2f\t%s\t%s\t%.2f\n", cf, fmtDur(res.AvgLatency), fmtDur(res.P99), res.ThroughputBatches())
	}
	return tw.Flush()
}

// RunChannels ablates the §3.5 mitigation: with NCCL's default
// (redundant) channel allocation, communication kernels demand enough
// SMs to conflict with GEMMs, so overlap serializes and Liger's gain
// vanishes; with reduced channels the kernels co-run.
func RunChannels(cfg RunConfig, w io.Writer) error {
	variants := []bool{false, true}
	results, err := runner.Map(cfg.Parallel, len(variants), func(i int) (serve.Result, error) {
		_, res, err := serveLigerEngine(a100Panel(), 1.2, cfg, core.Options{
			NCCL: nccl.Config{ReducedChannels: variants[i]}, NCCLSet: true,
		})
		return res, err
	})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NCCL channels\tavg lat\tthroughput")
	for i, reduced := range variants {
		res := results[i]
		name := "default (redundant)"
		if reduced {
			name = "reduced (NCCL_MAX_NCHANNELS/NCCL_NTHREADS)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\n", name, fmtDur(res.AvgLatency), res.ThroughputBatches())
	}
	fmt.Fprintln(tw, "\npaper: NCCL allocates redundant CUDA blocks by default; fewer blocks still saturate bandwidth and unblock overlap")
	return tw.Flush()
}
