package bench

import (
	"fmt"
	"io"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
)

// RunFig12 reproduces Fig. 12: strong scaling of serving OPT-30B on 1,
// 2 and 4 A100 GPUs. Latency and throughput improve with device count;
// Liger beats Intra-Op on throughput and Inter-Op on latency, with the
// 2-GPU gain less pronounced because the communication ratio is lower.
func RunFig12(cfg RunConfig, w io.Writer) error {
	devCounts := []int{1, 2, 4}
	if cfg.Quick {
		devCounts = []int{1, 4}
	}
	var sweeps []panelSweep
	for _, devs := range devCounts {
		node := hw.A100Node()
		if devs != node.NumGPUs {
			node = node.WithGPUs(devs)
		}
		kinds := core.Kinds()
		if devs == 1 {
			// With one device every runtime degenerates to sequential
			// single-GPU execution; Inter-Th is meaningless.
			kinds = headlineKinds
		}
		p := panel{
			label:   fmt.Sprintf("OPT-30B on %d x A100, batch 2", devs),
			nodeKey: "a100",
			node:    node,
			spec:    model.OPT30B(),
			batch:   2,
			phase:   model.Context,
		}
		sweeps = append(sweeps, panelSweep{p: p, rates: panelRates(p, cfg.Quick), kinds: kinds})
	}
	if err := runFigure("fig12", sweeps, cfg, w); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: Liger improves latency and throughput as GPUs increase; the 2-GPU effect is less pronounced (lower communication ratio)")
	return nil
}
