// Command ligertune measures a deployment's operating envelope: the
// saturation throughput of Liger and the baselines, and the arrival-
// rate window in which Liger beats both (the paper's Appendix D advises
// finding this range per node).
//
//	ligertune -node a100 -model OPT-30B
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"liger/internal/core"
	"liger/internal/scenario"
	"liger/internal/tune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ligertune: ")
	var (
		nodeName  = flag.String("node", "v100", "node preset: v100 or a100")
		modelName = flag.String("model", "OPT-30B", "model to serve")
		batch     = flag.Int("batch", 2, "requests per batch")
		batches   = flag.Int("batches", 100, "batches per probe point (at least 10)")
		points    = flag.Int("points", 9, "rate sweep resolution (at least 3)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q", flag.Arg(0))
	}

	// The flags lower to a single-node batch scenario, as ligersim's do.
	// Its rate is nominal (the node's intra-op capacity): every probe
	// replaces it. A zero batch would read as the scenario default.
	if *batch == 0 {
		log.Fatal("-batch: 0 is out of range")
	}
	sc := &scenario.Scenario{
		Name:  "ligertune",
		Model: *modelName,
		Node:  scenario.NodeSpec{Preset: *nodeName},
		Workload: scenario.Workload{
			Batches: max(*batches, 10), Batch: *batch, Rate: scenario.RelRate(1), Seed: 1,
		},
	}
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	c, err := scenario.Compile(sc)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := tune.Run(tune.Config{Scenario: c, Points: *points})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s serving %s (batch %d)\n", c.Node.Name, c.Model.Name, *batch)
	fmt.Println(rep)
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rate\tLiger lat\tIntra-Op lat\tInter-Op lat")
	for i := range rep.Sweep[core.KindLiger] {
		fmt.Fprintf(tw, "%.2f\t%v\t%v\t%v\n",
			rep.Sweep[core.KindLiger][i].Rate,
			rep.Sweep[core.KindLiger][i].Latency.Round(time.Microsecond),
			rep.Sweep[core.KindIntraOp][i].Latency.Round(time.Microsecond),
			rep.Sweep[core.KindInterOp][i].Latency.Round(time.Microsecond))
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
