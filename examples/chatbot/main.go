// Chatbot: the full generative lifecycle the paper's introduction
// motivates, driven by the generate package. Each conversation is a
// batch of requests that first runs the initial conditioning (prefill)
// phase over its prompt, then generates tokens one at a time against a
// growing KV cache (§4.3), with KV-cache admission control. Decode
// iterations are submitted dynamically, so Liger interleaves steps of
// different conversations.
//
// Reports time-to-first-token and time-per-output-token for Liger
// versus the Intra-Op baseline.
//
//	go run ./examples/chatbot
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
	"liger/internal/kvcache"
	"liger/internal/model"
	"liger/internal/stats"
)

func main() {
	log.SetFlags(0)
	node := hw.A100Node()
	spec := model.OPT30B()
	cfg := generate.Config{
		Conversations: 24,
		BatchSize:     4,
		PromptLen:     64,
		GenTokens:     32,
		ArrivalGap:    30 * time.Millisecond,
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "runtime\tTTFT avg\tTTFT p95\ttime/token avg\ttotal avg\tqueued for KV")
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp} {
		eng, err := core.NewEngine(core.Options{Node: node, Model: spec, Runtime: kind})
		if err != nil {
			log.Fatal(err)
		}
		kv, err := kvcache.NewPaged(node, spec, cfg.BatchSize, cfg.PromptLen, kvcache.PagedConfig{})
		if err != nil {
			log.Fatal(err)
		}
		run := cfg
		run.KV = kv
		res, err := generate.Run(eng.Clock(), eng.Runtime(), run)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%d\n",
			kind,
			res.AvgTTFT().Round(time.Microsecond),
			stats.Percentile(res.TTFT, 95).Round(time.Microsecond),
			res.AvgTPOT().Round(time.Microsecond),
			res.AvgTotal().Round(time.Millisecond),
			res.QueuedForKV)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d conversations x %d requests, %d-token prompts, %d generated tokens each\n",
		cfg.Conversations, cfg.BatchSize, cfg.PromptLen, cfg.GenTokens)
}
