package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"liger/internal/analyze"
	"liger/internal/cluster"
	"liger/internal/core"
	"liger/internal/generate"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/metrics"
	"liger/internal/model"
	"liger/internal/stats"
	"liger/internal/trace"
)

// continuousOpts carries the -continuous / -disagg flags from main.
// In these modes -batches counts sequences and -rate is the sequence
// arrival rate (Poisson); the batch-trace flags (-batch, -minseq,
// -maxseq, -decode, -process) do not apply.
type continuousOpts struct {
	Prompt int
	Gen    int
	Pool   int
	// Disagg splits prefill and decode onto separate node pools joined
	// by -network; Prefill/Decode size the pools.
	Disagg  bool
	Prefill int
	Decode  int
	Network string
	// ServingTrace names the Chrome-trace output file; Report prints the
	// serving analysis; MetricsOut writes a serving metrics snapshot
	// (windowed by Window). Any of them switches serving tracing on.
	ServingTrace string
	Report       bool
	MetricsOut   string
	Window       time.Duration
}

// traced reports whether the run needs a serving recorder.
func (co continuousOpts) traced() bool {
	return co.ServingTrace != "" || co.Report || co.MetricsOut != ""
}

// writeServingOutputs renders the recorded serving telemetry: the
// analysis report on stdout, then the Chrome trace and the metrics
// snapshot files. All three are byte-deterministic at any -shards.
func writeServingOutputs(rec *trace.ServingRecorder, runtime string, co continuousOpts) {
	if rec == nil {
		return
	}
	rec.Normalize()
	if co.Report {
		fmt.Println()
		if err := analyze.AnalyzeServing(rec).WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if co.ServingTrace != "" {
		f, err := os.Create(co.ServingTrace)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace     : wrote %s\n", co.ServingTrace)
	}
	if co.MetricsOut != "" {
		f, err := os.Create(co.MetricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := metrics.FromServing(runtime, rec, metrics.Options{Window: co.Window}).WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics   : wrote %s\n", co.MetricsOut)
	}
}

// runContinuousCLI serves a generative workload with iteration-level
// continuous batching and prints the decode-serving metrics. Output is
// byte-identical at any -shards setting.
func runContinuousCLI(node hw.Node, spec model.Spec, kind core.RuntimeKind, lcfg liger.Config,
	sequences int, rate float64, seed int64, shards int, co continuousOpts) {
	if co.Disagg {
		runDisaggCLI(node, spec, kind, lcfg, sequences, rate, seed, shards, co)
		return
	}
	opts := core.Options{Node: node, Model: spec, Runtime: kind,
		Liger: lcfg, LigerSet: kind == core.KindLiger, Shards: shards}
	eng, err := core.NewEngine(opts)
	if err != nil {
		log.Fatal(err)
	}
	var rec *trace.ServingRecorder
	if co.traced() {
		rec = trace.NewServingRecorder()
	}
	kv, err := kvcache.NewPaged(node, spec, co.Pool, co.Prompt+co.Gen, kvcache.PagedConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		kv.SetTracer(rec, eng.Clock().Now)
	}
	ccfg := generate.ContinuousConfig{
		Sequences:  sequences,
		RatePerSec: rate,
		PromptLen:  co.Prompt,
		GenTokens:  co.Gen,
		MaxPool:    co.Pool,
		KV:         kv,
		Seed:       seed,
	}
	if rec != nil {
		ccfg.Tracer = rec
	}
	res, err := generate.RunContinuous(eng.Clock(), eng.Runtime(), ccfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("node      : %s (%d GPUs, %s)\n", node.Name, node.NumGPUs, node.Interconnect.Name)
	fmt.Printf("model     : %s (%.0fB params)\n", spec.Name, float64(spec.Params())/1e9)
	fmt.Printf("runtime   : %s\n", kind)
	fmt.Printf("serving   : continuous, %d sequences (prompt %d + gen %d), poisson rate %.2f/s, pool %d, kv paged\n",
		sequences, co.Prompt, co.Gen, rate, co.Pool)
	printContinuousMetrics(res)
	writeServingOutputs(rec, fmt.Sprint(kind), co)
}

// runDisaggCLI serves the same workload on disaggregated prefill and
// decode pools behind the inter-node network.
func runDisaggCLI(node hw.Node, spec model.Spec, kind core.RuntimeKind, lcfg liger.Config,
	sequences int, rate float64, seed int64, shards int, co continuousOpts) {
	net, err := hw.NetworkPreset(co.Network)
	if err != nil {
		log.Fatal(err)
	}
	d, err := cluster.NewDisagg(cluster.DisaggConfig{
		Node:         node,
		Network:      net,
		PrefillNodes: co.Prefill,
		DecodeNodes:  co.Decode,
		Model:        spec,
		Runtime:      kind,
		Liger:        lcfg,
		LigerSet:     kind == core.KindLiger,
		Sequences:    sequences,
		RatePerSec:   rate,
		PromptLen:    co.Prompt,
		GenTokens:    co.Gen,
		MaxPool:      co.Pool,
		Seed:         seed,
		Workers:      shards,
		Trace:        co.traced(),
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pools     : %d prefill + %d decode nodes of %s (%d GPUs each) over %s\n",
		co.Prefill, co.Decode, node.Name, node.NumGPUs, net.Name)
	fmt.Printf("network   : %.0f GB/s effective, %s one-way\n", net.EffectiveBWGBs(), net.Latency)
	fmt.Printf("model     : %s (%.0fB params)\n", spec.Name, float64(spec.Params())/1e9)
	fmt.Printf("runtime   : %s\n", kind)
	fmt.Printf("serving   : disaggregated, %d sequences (prompt %d + gen %d), poisson rate %.2f/s, pool %d per decode node\n",
		sequences, co.Prompt, co.Gen, rate, co.Pool)
	fmt.Printf("handoffs  : %d KV transfers, %.1f MB total\n",
		res.KVTransfers, float64(res.KVTransferBytes)/1e6)
	printContinuousMetrics(generate.ContinuousResult{
		Result:           res.Result,
		Iterations:       res.Iterations,
		MeanPool:         res.MeanPool,
		Preemptions:      res.Preemptions,
		RecomputedTokens: res.RecomputedTokens,
		Makespan:         res.Makespan,
	})
	writeServingOutputs(d.ServingTrace(), fmt.Sprint(kind), co)
}

func printContinuousMetrics(res generate.ContinuousResult) {
	pcts := stats.Percentiles(res.Total, 50, 95, 99)
	fmt.Printf("ttft      : %v avg\n", res.AvgTTFT())
	fmt.Printf("tpot      : %v avg\n", res.AvgTPOT())
	fmt.Printf("p50/95/99 : %v / %v / %v\n", pcts[0], pcts[1], pcts[2])
	fmt.Printf("makespan  : %v\n", res.Makespan)
	fmt.Printf("decode    : %d iterations, mean pool %.2f\n", res.Iterations, res.MeanPool)
	if res.Preemptions > 0 {
		fmt.Printf("preempted : %d sequences, %d tokens recomputed\n", res.Preemptions, res.RecomputedTokens)
	}
}
