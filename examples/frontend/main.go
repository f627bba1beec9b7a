// Frontend: request-level serving through the batching frontend. Unlike
// the other examples (which submit pre-formed batches), requests arrive
// one at a time and the frontend packs them — up to 4 per batch, waiting
// at most 10 ms — so the reported latency is the full user-visible path:
// batching delay + pending + execution.
//
//	go run ./examples/frontend
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/serve"
)

func main() {
	log.SetFlags(0)
	node := hw.A100Node()
	spec := model.OPT30B()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "runtime\tavg req latency\tp99\tbatching delay\tbatches")
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp} {
		eng, err := core.NewEngine(core.Options{Node: node, Model: spec, Runtime: kind})
		if err != nil {
			log.Fatal(err)
		}
		reqs, err := serve.Generate(serve.TraceConfig{
			Batches:    600,
			BatchSize:  1,  // individual requests, packed by the frontend
			RatePerSec: 32, // ~12 batches/s after packing
			MinSeq:     16,
			MaxSeq:     128,
			Process:    serve.Poisson,
			Seed:       11,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := serve.RunRequests(eng.Clock(), eng.Runtime(), reqs, 4, 40*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%d\n",
			res.Runtime, res.AvgLatency.Round(time.Microsecond), res.P99.Round(time.Microsecond),
			res.AvgBatchingDelay.Round(time.Microsecond), res.Batches)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
