package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
)

// column is one model/node column of Fig. 10 and Fig. 11.
type column struct {
	nodeKey string
	node    hw.Node
	spec    model.Spec
}

// paperColumns are the four model/node columns of Fig. 10 and Fig. 11.
func paperColumns() []column {
	return []column{
		{"v100", hw.V100Node(), model.OPT30B()},
		{"a100", hw.A100Node(), model.OPT30B()},
		{"a100", hw.A100Node(), model.OPT66B()},
		{"a100", hw.A100Node(), model.GLM130B()},
	}
}

// fig10Panels returns the Fig. 10 grid: four model/node columns by
// three batch-size rows (the paper's (a)–(l)).
func fig10Panels(quick bool) []panel {
	columns := paperColumns()
	batches := []int{2, 4, 8}
	if quick {
		columns = columns[:2]
		batches = []int{2}
	}
	var out []panel
	for _, b := range batches {
		for _, c := range columns {
			out = append(out, panel{
				label:   fmt.Sprintf("%s on %s, batch %d", c.spec.Name, c.node.Name, b),
				nodeKey: c.nodeKey,
				node:    c.node,
				spec:    c.spec,
				batch:   b,
				phase:   model.Context,
			})
		}
	}
	return out
}

// RunFig10 reproduces Fig. 10: average latency and throughput as the
// batch arrival rate increases, for randomly generated traces with
// sequence lengths 16–128, across all four runtimes and the full
// model/node/batch grid. Arrival rates are expressed relative to the
// intra-operator runtime's analytic capacity so every panel sweeps its
// interesting region. A '*' marks rates beyond Liger's measured
// saturated throughput (the paper's red line).
func RunFig10(cfg RunConfig, w io.Writer) error {
	var sweeps []panelSweep
	for _, p := range fig10Panels(cfg.Quick) {
		sweeps = append(sweeps, panelSweep{p: p, rates: panelRates(p, cfg.Quick), kinds: core.Kinds()})
	}
	// Every point of every panel fans out together.
	if err := runFigure("fig10", sweeps, cfg, w); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: throughput +1.15x avg (V100) and +1.52x avg (A100) vs Intra-Op;")
	fmt.Fprintln(w, "       latency -45.4%/-59.1% (V100) and -35.8%/-42.2% (A100) vs Inter-Op/Inter-Th before the red line")
	return nil
}

// printPanel renders one Fig. 10/11 sub-plot as a table plus the
// paper-style summary ratios.
func printPanel(w io.Writer, p panel, rates []float64, results map[core.RuntimeKind][]point) error {
	fmt.Fprintf(w, "\n== %s ==\n", p.label)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "rate (batch/s)\t")
	kinds := sortedKinds(results)
	for _, k := range kinds {
		fmt.Fprintf(tw, "%s lat\t%s thr\t", k, k)
	}
	fmt.Fprintln(tw)

	ligerSat := saturatedThroughput(results[core.KindLiger])
	for i, rate := range rates {
		marker := ""
		if rate > ligerSat {
			marker = "*"
		}
		fmt.Fprintf(tw, "%.2f%s\t", rate, marker)
		for _, k := range kinds {
			pt := results[k][i]
			fmt.Fprintf(tw, "%s\t%.2f\t", fmtDur(pt.res.AvgLatency), pt.res.ThroughputBatches())
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Paper-style summary: saturated-throughput ratio vs Intra-Op and
	// average latency reduction vs the pipeline baselines over the rates
	// before Liger's saturation.
	intraSat := saturatedThroughput(results[core.KindIntraOp])
	if intraSat > 0 {
		fmt.Fprintf(w, "Liger/Intra-Op saturated throughput: %.2fx\n", ligerSat/intraSat)
	}
	for _, base := range []core.RuntimeKind{core.KindInterOp, core.KindInterTh} {
		pts, ok := results[base]
		if !ok {
			continue
		}
		var sum float64
		var n int
		for i, rate := range rates {
			if rate > ligerSat {
				continue
			}
			lp := results[core.KindLiger][i]
			bp := pts[i]
			if bp.res.AvgLatency > 0 {
				sum += 1 - float64(lp.res.AvgLatency)/float64(bp.res.AvgLatency)
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(w, "Liger avg latency reduction vs %s (pre-red-line): %.1f%%\n", base, 100*sum/float64(n))
		}
	}
	return nil
}
