package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"liger/internal/runner"
	"liger/internal/scenario"
	"liger/internal/serve"
)

// RunStraggler is a failure-injection extension: one GPU of the node
// (RunConfig.StragglerDevice) runs at reduced speed (thermal
// throttling, a flaky link) and we measure how each runtime degrades.
// Tensor-parallel execution (Intra-Op, Liger) is gated by the slowest
// rank at every collective; the pipeline only slows in proportion to
// the straggler's stage. The slowdown is a static node.devices speed
// override, a persist-to-end slowdown window, so the straggler is
// just the static corner of the chaos experiment.
func RunStraggler(cfg RunConfig, w io.Writer) error {
	dev := cfg.StragglerDevice
	speeds := []float64{1.0, 0.8, 0.6}
	results, err := runner.Map(cfg.Parallel, len(speeds)*len(headlineKinds), func(i int) (serve.Result, error) {
		sc := a100Panel().scenario(scenario.RelRate(0.85), cfg)
		if speed := speeds[i/len(headlineKinds)]; speed < 1 {
			sc.Node.Devices = []scenario.DeviceOverride{{Device: dev, Speed: speed}}
		}
		return serveScenario(sc, headlineKinds[i%len(headlineKinds)], cfg)
	})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "gpu%d speed\truntime\tavg lat\tp99 lat\tthroughput\n", dev)
	for si, speed := range speeds {
		for ki, kind := range headlineKinds {
			res := results[si*len(headlineKinds)+ki]
			fmt.Fprintf(tw, "%.0f%%\t%s\t%s\t%s\t%.2f\n",
				100*speed, kind, fmtDur(res.AvgLatency), fmtDur(res.P99), res.ThroughputBatches())
		}
	}
	fmt.Fprintln(tw, "\nextension: a straggler GPU gates every collective; interleaving other batches' work into the induced idle time softens the hit")
	return tw.Flush()
}
