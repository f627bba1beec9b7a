// Continuous batching: Orca-style iteration-level scheduling over the
// decode phase — every iteration runs the current pool of live
// sequences, admitting arrivals between iterations. Compared against
// per-conversation static batches at the same offered load: pooling
// amortizes each decode step over more sequences (better time-per-token
// and total time) at the cost of time-to-first-token.
//
//	go run ./examples/continuous
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"liger/internal/core"
	"liger/internal/generate"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/simclock"
)

func main() {
	log.SetFlags(0)
	node := hw.A100Node()
	spec := model.OPT30B()
	const (
		sequences = 48
		rate      = 120.0 // sequences per second
		prompt    = 48
		tokens    = 24
	)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheduling\truntime\tTTFT avg\ttime/token avg\ttotal avg\tmean pool")

	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp} {
		eng, err := core.NewEngine(core.Options{Node: node, Model: spec, Runtime: kind})
		if err != nil {
			log.Fatal(err)
		}
		// One decode node over a paged KV cache, fed straight from the
		// arrivals; the ledger stamps each sequence and folds the run.
		w := serve.SequenceWorkload{
			Sequences: sequences, RatePerSec: rate,
			PromptLen: prompt, GenTokens: tokens, MaxPool: 16, Seed: 9,
		}
		ledger := serve.NewLedger(w.Sequences, w.GenTokens)
		dec, err := serve.NewDecodeNode(eng.Clock(), eng.Runtime(), serve.DecodeNodeConfig{
			Node: node, Model: spec, SequenceWorkload: w, Hooks: ledger.Hooks(),
		})
		if err != nil {
			log.Fatal(err)
		}
		w.Arrive(eng.Clock(), func(id int, now simclock.Time) {
			ledger.Arrive(id, now)
			dec.Add(id, false, now)
		})
		eng.Clock().Run()
		cont, err := ledger.Result(eng.Runtime().Name(), dec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "continuous\t%s\t%v\t%v\t%v\t%.1f\n", kind,
			cont.TTFT.Round(time.Microsecond), cont.TPOT.Round(time.Microsecond),
			cont.AvgLatency.Round(time.Millisecond), cont.MeanPool)

		eng2, err := core.NewEngine(core.Options{Node: node, Model: spec, Runtime: kind})
		if err != nil {
			log.Fatal(err)
		}
		static, err := generate.Run(eng2.Clock(), eng2.Runtime(), generate.Config{
			Conversations: sequences / 4, BatchSize: 4,
			PromptLen: prompt, GenTokens: tokens,
			ArrivalGap: time.Second * 4 / time.Duration(rate),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "static\t%s\t%v\t%v\t%v\t\n", kind,
			static.AvgTTFT().Round(time.Microsecond), static.AvgTPOT().Round(time.Microsecond),
			static.AvgTotal().Round(time.Millisecond))
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nLiger composes with either batching policy; with static batches it interleaves")
	fmt.Println("different conversations' iterations, recovering much of the pooled efficiency.")
}
