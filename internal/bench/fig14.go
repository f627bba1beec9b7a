package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/runner"
	"liger/internal/scenario"
	"liger/internal/serve"
)

// RunFig14 reproduces Fig. 14: the impact of the runtime kernel
// decomposition division factor (2, 4, 8, 16) serving OPT-30B on the
// V100 node with batch size 2. Larger factors give the scheduler
// finer-grained pieces and more closely matched subsets, with
// diminishing returns once pieces stop saturating the GPU.
func RunFig14(cfg RunConfig, w io.Writer) error {
	p := panel{
		label:   "OPT-30B on v100x4, batch 2",
		nodeKey: "v100",
		node:    hw.V100Node(),
		spec:    model.OPT30B(),
		batch:   2,
		phase:   model.Context,
	}
	cap := intraCapacity(p)
	factors := []int{2, 4, 8, 16}
	if cfg.Quick {
		factors = []int{2, 8}
	}
	// Operate near Liger's saturation, where matching quality matters.
	rates := []float64{0.95 * cap, 1.15 * cap}
	results, err := runner.Map(cfg.Parallel, len(factors)*len(rates), func(i int) (serve.Result, error) {
		l := scenario.LigerSpec{DivisionFactor: factors[i/len(rates)]}
		return runPoint(p, rates[i%len(rates)], core.KindLiger, cfg, l)
	})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "division factor\trate (batch/s)\tavg lat\tthroughput\tdecompositions")
	for fi, d := range factors {
		for ri, rate := range rates {
			res := results[fi*len(rates)+ri]
			fmt.Fprintf(tw, "%d\t%.2f\t%s\t%.2f\t\n", d, rate, fmtDur(res.AvgLatency), res.ThroughputBatches())
		}
	}
	fmt.Fprintln(tw, "\npaper: larger decomposition factors improve latency and throughput with gradually decreasing benefit")
	return tw.Flush()
}
