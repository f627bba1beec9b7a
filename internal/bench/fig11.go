package bench

import (
	"fmt"
	"io"

	"liger/internal/core"
	"liger/internal/model"
)

// RunFig11 reproduces Fig. 11: the generative incremental-sampling
// phase (§4.3). One sampling iteration per batch with a KV cache at
// sequence length 16 and batch size 32, across the four model/node
// configurations. The paper measures throughput gains of up to 1.08x,
// 1.29x, 1.23x and 1.13x over Intra-Op — weaker than the general tasks
// because decode is memory-bound and relatively lighter on
// communication.
func RunFig11(cfg RunConfig, w io.Writer) error {
	columns := paperColumns()
	if cfg.Quick {
		columns = columns[:1]
	}
	var sweeps []panelSweep
	for _, c := range columns {
		p := panel{
			label:   fmt.Sprintf("%s on %s, decode batch 32 ctx 16", c.spec.Name, c.node.Name),
			nodeKey: c.nodeKey,
			node:    c.node,
			spec:    c.spec,
			batch:   32,
			phase:   model.Decode,
			ctxLen:  16,
		}
		sweeps = append(sweeps, panelSweep{p: p, rates: panelRates(p, cfg.Quick), kinds: core.Kinds()})
	}
	if err := runFigure("fig11", sweeps, cfg, w); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: throughput up to 1.08x/1.29x/1.23x/1.13x vs Intra-Op; better latency than Inter-Op/Inter-Th pre-saturation")
	return nil
}
