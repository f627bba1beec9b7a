// Command ligersim runs a single serving simulation: one node, one
// model, one runtime, one arrival rate — and prints the paper's
// metrics. Use it to explore operating points interactively; use
// ligerbench to regenerate whole figures.
//
// Example:
//
//	ligersim -node v100 -model OPT-30B -runtime Liger -rate 12 -batches 200 -batch 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"liger/internal/analyze"
	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/metrics"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ligersim: ")
	if dispatchScenario() {
		return
	}

	var (
		nodeName   = flag.String("node", "v100", "node preset: v100 (4x NVLink) or a100 (4x PCIe)")
		gpus       = flag.Int("gpus", 0, "override GPU count (strong scaling); 0 keeps the preset")
		modelName  = flag.String("model", "OPT-30B", "model: OPT-30B, OPT-66B, GLM-130B, tiny")
		rtName     = flag.String("runtime", "Liger", "runtime: Liger, Intra-Op, Inter-Op, Inter-Th")
		rate       = flag.Float64("rate", 10, "batch arrival rate per second")
		batches    = flag.Int("batches", 200, "number of batch arrivals (paper uses 2000)")
		batchSize  = flag.Int("batch", 2, "requests per batch")
		minSeq     = flag.Int("minseq", 16, "minimum sequence length")
		maxSeq     = flag.Int("maxseq", 128, "maximum sequence length")
		decode     = flag.Bool("decode", false, "generative incremental-sampling phase (§4.3)")
		ctxLen     = flag.Int("ctx", 16, "KV-cache length for -decode")
		process    = flag.String("process", "constant", "arrival process: constant, poisson, bursty")
		seed       = flag.Int64("seed", 1, "trace random seed")
		division   = flag.Int("division", 8, "Liger kernel decomposition factor (§3.6)")
		cfactor    = flag.Float64("cfactor", 0, "Liger contention factor; 0 = node default (§3.5)")
		inflight   = flag.Int("inflight", 4, "Liger processing-list size")
		syncMode   = flag.String("sync", "hybrid", "Liger sync mode: hybrid or cpu-gpu (§3.4)")
		traceOut   = flag.String("trace", "", "write a Chrome trace JSON of kernel execution to this file")
		metricsOut = flag.String("metrics", "", "write a metrics JSON snapshot (counters, histograms, per-request latency decomposition; with -continuous/-disagg: serving counters, TTFT/TPOT histograms, windowed KV/pool series) to this file")
		journalN   = flag.Int("journal", 0, "print the last N Liger scheduling rounds")
		traceIn    = flag.String("tracein", "", "replay a JSON trace file instead of generating one")
		traceSave  = flag.String("tracesave", "", "save the generated trace as JSON before serving")
		deadline   = flag.Duration("deadline", 0, "also report goodput/miss rate against this latency SLO")
		explain    = flag.Bool("explain", false, "print the run's critical path, idle-gap attribution, overlap efficiency and an annotated timeline")
		topN       = flag.Int("top", 10, "top-N critical-path contributors for -explain")
		routing    = flag.String("routing", "earliest", "collective routing for -explain: earliest (surface rendezvous stalls) or binding (follow the gating member)")
		window     = flag.Duration("window", 0, "windowed time-series bucket width for -metrics (0 disables)")
		shards     = flag.Int("shards", 0, "request lookahead-sharded execution; single-node specs fall back to the sequential engine (see docs/PERF.md) and output is identical at any value")
		nodes      = flag.Int("nodes", 0, "serve on a fleet of N replica nodes behind the health-aware router (0 = classic single-node path; see docs/FLEET.md)")
		spares     = flag.Int("spares", 0, "spare nodes for whole-node failover (with -nodes)")
		network    = flag.String("network", "ib", "inter-node network preset for -nodes: ib or ethernet")
		probe      = flag.Duration("probe", 0, "router health-probe interval for -nodes (0 = cluster default)")
		hedge      = flag.Duration("hedge", 0, "router hedging delay for -nodes (0 disables)")
		retries    = flag.Int("retries", 3, "router retry budget per request (with -nodes)")
		continuous = flag.Bool("continuous", false, "iteration-level continuous batching: -batches counts generative sequences (prompt + gen tokens) pooled per decode step (see docs/SERVING.md)")
		promptLen  = flag.Int("prompt", 96, "prompt length per sequence (with -continuous/-disagg)")
		genTokens  = flag.Int("gen", 32, "decode tokens per sequence (with -continuous/-disagg)")
		pool       = flag.Int("pool", 16, "max resident sequences per decode iteration (with -continuous/-disagg)")
		disagg     = flag.Bool("disagg", false, "disaggregate prefill and decode onto separate node pools over -network (implies -continuous)")
		prefillN   = flag.Int("prefillnodes", 1, "prefill pool size for -disagg")
		decodeN    = flag.Int("decodenodes", 1, "decode pool size for -disagg")
		srvTrace   = flag.String("serving-trace", "", "write a Chrome trace JSON of serving activity (iteration lanes per pool, KV-pressure counters, router decisions, KV-handoff flows) to this file (with -continuous/-disagg/-nodes)")
		srvReport  = flag.Bool("serving-report", false, "print the serving analysis: TTFT/TPOT decomposition, per-pool load, KV-pressure episodes (with -continuous/-disagg)")
	)
	flag.Parse()

	node, err := hw.Preset(*nodeName)
	if err != nil {
		log.Fatal(err)
	}
	if *gpus > 0 {
		node = node.WithGPUs(*gpus)
	}
	spec, err := model.ByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := core.KindByName(*rtName)
	if err != nil {
		log.Fatal(err)
	}

	lcfg := liger.DefaultConfig(*nodeName)
	lcfg.DivisionFactor = *division
	lcfg.MaxInflight = *inflight
	if *cfactor > 0 {
		lcfg.ContentionFactor = *cfactor
	}
	switch *syncMode {
	case "hybrid":
		lcfg.Sync = liger.Hybrid
	case "cpu-gpu":
		lcfg.Sync = liger.CPUGPU
	case "inter-stream-only":
		lcfg.Sync = liger.InterStreamOnly
	default:
		log.Fatalf("unknown sync mode %q", *syncMode)
	}

	if *continuous || *disagg {
		runContinuousCLI(node, spec, kind, lcfg, *batches, *rate, *seed, *shards, continuousOpts{
			Prompt:       *promptLen,
			Gen:          *genTokens,
			Pool:         *pool,
			Disagg:       *disagg,
			Prefill:      *prefillN,
			Decode:       *decodeN,
			Network:      *network,
			ServingTrace: *srvTrace,
			Report:       *srvReport,
			MetricsOut:   *metricsOut,
			Window:       *window,
		})
		return
	}

	opts := core.Options{Node: node, Model: spec, Runtime: kind, Liger: lcfg, LigerSet: true,
		Shards: *shards}
	var recorder *trace.Recorder
	if *traceOut != "" || *metricsOut != "" || *explain {
		recorder = trace.NewRecorder()
		opts.Tracer = recorder
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		log.Fatal(err)
	}
	if *nodes == 0 && *shards > 1 && !eng.ShardPlan().Parallel() {
		// Diagnostics go to stderr: stdout is the determinism-pinned
		// report surface and must not depend on the -shards setting.
		plan := eng.ShardPlan()
		log.Printf("note: -shards %d requested, but the partition analysis found %d domain(s); running on the sequential engine", *shards, plan.Domains)
		for _, c := range plan.Couplings {
			log.Printf("note:   zero-latency coupling: %s", c.Name)
		}
	}

	if *journalN > 0 && kind == core.KindLiger {
		if lg, ok := eng.Runtime().(interface{ Scheduler() *liger.Scheduler }); ok {
			lg.Scheduler().EnableJournal(*journalN)
		}
	}

	tc := serve.TraceConfig{
		Batches:    *batches,
		BatchSize:  *batchSize,
		RatePerSec: *rate,
		MinSeq:     *minSeq,
		MaxSeq:     *maxSeq,
		Seed:       *seed,
	}
	if *decode {
		tc.Phase = model.Decode
		tc.CtxLen = *ctxLen
	}
	switch *process {
	case "poisson":
		tc.Process = serve.Poisson
	case "bursty":
		tc.Process = serve.Bursty
	case "constant":
		tc.Process = serve.ConstantRate
	default:
		log.Fatalf("unknown arrival process %q", *process)
	}
	var arrivals []serve.Arrival
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			log.Fatal(err)
		}
		arrivals, err = serve.LoadTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		arrivals, err = serve.Generate(tc)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *traceSave != "" {
		f, err := os.Create(*traceSave)
		if err != nil {
			log.Fatal(err)
		}
		if err := serve.SaveTrace(f, arrivals); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	if *nodes > 0 {
		runFleetCLI(node, spec, kind, lcfg, arrivals, *deadline, fleetOpts{
			Nodes:        *nodes,
			Spares:       *spares,
			Network:      *network,
			Probe:        *probe,
			Hedge:        *hedge,
			Retries:      *retries,
			ServingTrace: *srvTrace,
		}, *shards, *seed)
		return
	}

	res, err := eng.Serve(arrivals)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("node      : %s (%d GPUs, %s)\n", node.Name, node.NumGPUs, node.Interconnect.Name)
	fmt.Printf("model     : %s (%.0fB params)\n", spec.Name, float64(spec.Params())/1e9)
	fmt.Printf("runtime   : %s\n", res.Runtime)
	fmt.Printf("trace     : %d batches x %d reqs, %s rate %.2f/s, phase %s\n",
		*batches, *batchSize, tc.Process, *rate, tc.Phase)
	fmt.Printf("avg lat   : %v\n", res.AvgLatency)
	fmt.Printf("p50/95/99 : %v / %v / %v\n", res.P50, res.P95, res.P99)
	fmt.Printf("throughput: %.3f batches/s (%.3f req/s)\n", res.ThroughputBatches(), res.ThroughputRequests())
	fmt.Printf("makespan  : %v\n", res.Makespan)
	if *deadline > 0 {
		fmt.Printf("SLO %v    : %.1f%% missed, goodput %.3f batches/s\n",
			*deadline, 100*res.DeadlineMissRate(*deadline), res.Goodput(*deadline))
	}
	for i, st := range eng.SimNode().Stats() {
		fmt.Printf("gpu%d      : compute %v, comm %v, overlap %v, kernels %d\n",
			i, st.ComputeBusy, st.CommBusy, st.OverlapBusy, st.KernelsRun)
	}
	if lg, ok := eng.Runtime().(interface{ Scheduler() *liger.Scheduler }); ok && kind == core.KindLiger {
		s := lg.Scheduler().Stats()
		fmt.Printf("scheduler : %d rounds, %d primary + %d secondary kernels, %d decompositions, %d empty-secondary rounds\n",
			s.Rounds, s.PrimaryKernels, s.SecondaryKernels, s.Decompositions, s.EmptySecondary)
		if *journalN > 0 {
			fmt.Printf("last %d scheduling rounds:\n", *journalN)
			if err := lg.Scheduler().WriteJournal(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *explain {
		rep := analyze.Analyze(recorder, analyze.Options{Routing: *routing})
		fmt.Println()
		if err := rep.WriteText(os.Stdout, *topN); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nannotated timeline (gaps: l=launch d=dependency r=rendezvous R=recovery X=failed .=no-work):\n")
		tl := trace.NewTimeline(recorder, 100)
		tl.SetGaps(rep.Gaps.GapMarks())
		if err := tl.Render(os.Stdout, 0, 0); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := recorder.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace     : wrote %s\n", *traceOut)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := metrics.FromRunOpts(res, recorder, metrics.Options{Window: *window}).WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics   : wrote %s\n", *metricsOut)
	}
}
