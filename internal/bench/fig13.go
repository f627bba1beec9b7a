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

// RunFig13 reproduces Fig. 13: Liger with the hybrid synchronization
// approach versus Liger with only CPU-GPU synchronization, serving
// OPT-30B on the V100 node with batch size 2. The paper observes an
// obvious latency and throughput drop for CPU-GPU synchronization: a
// null-kernel launch costs ~5 µs, but waiting for communication kernels
// on all GPUs before relaunching costs over 20 µs per switch point. The
// inter-stream-only approach that §3.4 describes and rejects is
// included as a third column.
func RunFig13(cfg RunConfig, w io.Writer) error {
	p := panel{
		label:   "OPT-30B on v100x4, batch 2",
		nodeKey: "v100",
		node:    hw.V100Node(),
		spec:    model.OPT30B(),
		batch:   2,
		phase:   model.Context,
	}
	modes := []struct{ name, sync string }{
		{"hybrid", "hybrid"},
		{"cpu-gpu", "cpu-gpu"},
		{"inter-stream", "inter-stream-only"},
	}
	rates := panelRates(p, cfg.Quick)
	type cell struct {
		lat string
		thr float64
	}
	// One independent simulation per (sync mode, rate), fanned across the
	// sweep executor.
	results, err := runner.Map(cfg.Parallel, len(modes)*len(rates), func(i int) (serve.Result, error) {
		l := scenario.LigerSpec{Sync: modes[i/len(rates)].sync}
		return runPoint(p, rates[i%len(rates)], core.KindLiger, cfg, l)
	})
	if err != nil {
		return err
	}
	table := map[string]map[float64]cell{}
	for mi, m := range modes {
		table[m.name] = map[float64]cell{}
		for ri, rate := range rates {
			res := results[mi*len(rates)+ri]
			table[m.name][rate] = cell{lat: fmtDur(res.AvgLatency), thr: res.ThroughputBatches()}
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "rate (batch/s)\t")
	for _, m := range modes {
		fmt.Fprintf(tw, "%s lat\t%s thr\t", m.name, m.name)
	}
	fmt.Fprintln(tw)
	for _, rate := range rates {
		fmt.Fprintf(tw, "%.2f\t", rate)
		for _, m := range modes {
			c := table[m.name][rate]
			fmt.Fprintf(tw, "%s\t%.2f\t", c.lat, c.thr)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw, "\npaper: CPU-GPU-only synchronization performs unfavorably on both latency and throughput;")
	fmt.Fprintln(tw, "       inter-stream-only control lags on communication kernels (§3.4) — hybrid wins")
	return tw.Flush()
}
