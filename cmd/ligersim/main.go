// Command ligersim runs a single serving simulation: one node, one
// model, one runtime, one arrival rate — and prints the paper's
// metrics. Use it to explore operating points interactively; use
// ligerbench to regenerate whole figures.
//
// Example:
//
//	ligersim -node v100 -model OPT-30B -runtime Liger -rate 12 -batches 200 -batch 2
//
// Every flag invocation lowers to a one-runtime scenario and runs
// through the scenario runners (docs/SCENARIOS.md, "One run path").
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"liger/internal/analyze"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/metrics"
	"liger/internal/scenario"
	"liger/internal/serve"
	"liger/internal/trace"
)

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
	process    = flag.String("process", "constant", "arrival process: constant, poisson, bursty, diurnal")
	seed       = flag.Int64("seed", 1, "trace random seed")
	division   = flag.Int("division", 8, "Liger kernel decomposition factor (§3.6)")
	cfactor    = flag.Float64("cfactor", 0, "Liger contention factor; 0 = node default (§3.5)")
	inflight   = flag.Int("inflight", 4, "Liger processing-list size")
	syncMode   = flag.String("sync", "hybrid", "Liger sync mode: hybrid, cpu-gpu or inter-stream-only (§3.4)")
	traceOut   = flag.String("trace", "", "write a Chrome trace JSON of the run to this file: kernel execution in batch mode, serving activity (iteration lanes per pool, KV-pressure counters, router decisions, KV-handoff flows) with -continuous/-disagg/-nodes")
	metricsOut = flag.String("metrics", "", "write a metrics JSON snapshot to this file: in batch mode counters, histograms and per-request latency decomposition; with -continuous/-disagg serving counters, TTFT/TPOT histograms and windowed KV/pool series (not read with -nodes)")
	journalN   = flag.Int("journal", 0, "print the last N Liger scheduling rounds")
	traceIn    = flag.String("tracein", "", "replay a JSON trace file instead of generating one")
	traceSave  = flag.String("tracesave", "", "save the generated trace as JSON before serving")
	deadline   = flag.Duration("deadline", 0, "also report goodput/miss rate against this latency SLO")
	explain    = flag.Bool("explain", false, "print the run's analysis: in batch mode its critical path, idle-gap attribution, overlap efficiency and an annotated timeline; with -continuous/-disagg its TTFT/TPOT decomposition, per-pool load and KV-pressure episodes")
	topN       = flag.Int("top", 10, "top-N critical-path contributors for -explain")
	routing    = flag.String("routing", "earliest", "collective routing for -explain: earliest (surface rendezvous stalls) or binding (follow the gating member)")
	window     = flag.Duration("window", 0, "windowed time-series bucket width for -metrics (0 disables)")
	shards     = flag.Int("shards", 0, "worker count of the sharded executor that -nodes and -disagg runs use; output is identical at any value (see docs/PERF.md)")
	nodes      = flag.Int("nodes", 0, "serve on a fleet of N replica nodes behind the health-aware router (0 = classic single-node path; see docs/FLEET.md)")
	spares     = flag.Int("spares", 0, "spare nodes for whole-node failover (with -nodes)")
	network    = flag.String("network", "ib", "inter-node network preset for -nodes/-disagg: ib or ethernet")
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
)

// mode is the serving mode a flag invocation selects.
type mode int

const (
	batchMode mode = 1 << iota
	fleetMode
	continuousMode
	disaggMode

	batchLike = batchMode | fleetMode
	serving   = continuousMode | disaggMode
)

func (m mode) String() string {
	switch m {
	case fleetMode:
		return "fleet (-nodes)"
	case continuousMode:
		return "continuous"
	case disaggMode:
		return "disagg"
	default:
		return "batch"
	}
}

// readBy names the modes that read each flag; a flag not listed is
// read in every mode. Setting a flag the mode does not read is an
// error, never a silent no-op.
var readBy = map[string]mode{
	"batch": batchLike, "minseq": batchLike, "maxseq": batchLike, "decode": batchLike, "ctx": batchLike,
	"process": batchLike, "tracein": batchLike, "tracesave": batchLike, "deadline": batchLike, "nodes": batchLike,
	"journal": batchMode, "top": batchMode, "routing": batchMode,
	"explain": batchMode | serving, "metrics": batchMode | serving, "window": batchMode | serving,
	"spares": fleetMode, "probe": fleetMode, "hedge": fleetMode, "retries": fleetMode,
	"network": fleetMode | disaggMode, "shards": fleetMode | disaggMode,
	"prompt": serving, "gen": serving, "pool": serving,
	"prefillnodes": disaggMode, "decodenodes": disaggMode,
}

// shapes names the output each of these flags shapes; the flag is read
// only when that output is asked for.
var shapes = map[string]string{"window": "metrics", "top": "explain", "routing": "explain"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ligersim: ")
	if dispatchScenario() {
		return
	}
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q", flag.Arg(0))
	}
	m := batchMode
	switch {
	case *disagg:
		m = disaggMode
	case *continuous:
		m = continuousMode
	case *nodes != 0:
		m = fleetMode
	}
	outputs := map[string]bool{"metrics": *metricsOut != "", "explain": *explain}
	flag.Visit(func(f *flag.Flag) {
		if r, ok := readBy[f.Name]; ok && r&m == 0 {
			log.Fatalf("-%s is not read in %s mode", f.Name, m)
		}
		if out, ok := shapes[f.Name]; ok && !outputs[out] {
			log.Fatalf("-%s is read only with -%s", f.Name, out)
		}
	})
	// The output flags lower to no scenario key, so their ranges are
	// checked here.
	if *journalN < 0 {
		outOfRange("journal", *journalN)
	}
	if *topN < 1 {
		outOfRange("top", *topN)
	}
	if *window < 0 {
		outOfRange("window", *window)
	}

	sc := lower(m)
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	c, err := scenario.Compile(sc)
	if err != nil {
		log.Fatal(err)
	}
	if *traceSave != "" {
		saveArrivals(c)
	}
	opts := scenario.RunOptions{
		Shards:  *shards,
		Journal: *journalN,
		Trace:   *traceOut != "" || *metricsOut != "" || *explain,
	}
	out, err := scenario.RunOne(c, c.Kinds[0], opts)
	if err != nil {
		log.Fatal(err)
	}
	switch m {
	case batchMode:
		renderBatch(c, out)
	case fleetMode:
		renderFleet(c, out)
	default:
		renderServing(c, out)
	}
	if *traceOut != "" {
		writeOutput("trace", *traceOut, out.Recorder.WriteChromeTrace)
	}
	if *metricsOut != "" {
		mo := metrics.Options{Window: *window}
		if m == batchMode {
			writeOutput("metrics", *metricsOut, metrics.FromRun(out.Result, out.Recorder, mo).WriteJSON)
		} else {
			writeOutput("metrics", *metricsOut, metrics.FromServing(out.Result.Runtime, out.Recorder, mo).WriteJSON)
		}
	}
}

// lower builds the one-runtime scenario the flags describe. The
// scenario's validation and Compile then reject out-of-range values
// with their own messages.
func lower(m mode) *scenario.Scenario {
	sc := &scenario.Scenario{
		Name:     "ligersim",
		Model:    *modelName,
		Runtimes: []string{*rtName},
		Node:     scenario.NodeSpec{Preset: *nodeName, GPUs: *gpus},
		Liger: scenario.LigerSpec{
			Sync:             *syncMode,
			ContentionFactor: *cfactor,
			DivisionFactor:   nonzero("division", *division),
			Inflight:         nonzero("inflight", *inflight),
		},
		Workload: scenario.Workload{Batches: *batches, Rate: scenario.AbsRate(*rate), Seed: *seed},
	}
	w := &sc.Workload
	if m&serving != 0 {
		w.Mode = "continuous"
		w.Prompt, w.Gen, w.Pool = nonzero("prompt", *promptLen), nonzero("gen", *genTokens), nonzero("pool", *pool)
		sc.KV = &scenario.KVSpec{}
		if m == disaggMode {
			sc.Cluster = &scenario.ClusterSpec{
				Prefill: nonzero("prefillnodes", *prefillN),
				Decode:  nonzero("decodenodes", *decodeN),
				Network: *network,
			}
		}
		return sc
	}
	w.Arrivals = *traceIn
	w.Batch = nonzero("batch", *batchSize)
	w.Seq = scenario.SeqRange{Min: *minSeq, Max: *maxSeq}
	w.Process = *process
	if *decode {
		w.Phase, w.CtxLen = "decode", nonzero("ctx", *ctxLen)
	}
	sc.Policy.Deadline = scenario.AbsTime(*deadline)
	if m == fleetMode {
		sc.Cluster = &scenario.ClusterSpec{Nodes: *nodes, Spares: *spares, Network: *network, Probe: scenario.AbsTime(*probe)}
		sc.Policy.Hedge = scenario.AbsTime(*hedge)
		sc.Policy.Retries = *retries
		if *retries > 0 {
			// The CLI exposes only the retry budget; the backoff curve uses
			// serving-scale defaults (2ms doubling, 32ms cap).
			sc.Policy.Backoff = scenario.AbsTime(2 * time.Millisecond)
			sc.Policy.BackoffCap = scenario.AbsTime(32 * time.Millisecond)
		}
	}
	return sc
}

// nonzero rejects a zero, which a scenario would read as "use the
// default"; the flags carry their defaults themselves.
func nonzero(name string, v int) int {
	if v == 0 {
		outOfRange(name, v)
	}
	return v
}

// outOfRange fails the invocation on a flag value outside its range.
func outOfRange(name string, v any) {
	log.Fatalf("-%s: %v is out of range", name, v)
}

// saveArrivals writes the trace the run serves, the -tracein file's or
// the generated one, to -tracesave.
func saveArrivals(c *scenario.Compiled) {
	arr := c.Arrivals
	var err error
	if arr == nil {
		arr, err = serve.Generate(c.Trace)
	}
	if err == nil {
		err = writeJSONFile(*traceSave, func(w io.Writer) error { return serve.SaveTrace(w, arr) })
	}
	if err != nil {
		log.Fatal(err)
	}
}

// writeOutput writes one output file and reports it on stdout.
func writeOutput(label, path string, write func(io.Writer) error) {
	if err := writeJSONFile(path, write); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s: wrote %s\n", label, path)
}

func printModel(c *scenario.Compiled, runtime string) {
	fmt.Printf("model     : %s (%.0fB params)\n", c.Model.Name, float64(c.Model.Params())/1e9)
	fmt.Printf("runtime   : %s\n", runtime)
}

func printNetwork(net hw.NetworkSpec) {
	fmt.Printf("network   : %.0f GB/s effective, %s one-way\n", net.EffectiveBWGBs(), net.Latency)
}

func printLatency(res serve.Result) {
	fmt.Printf("avg lat   : %v\n", res.AvgLatency)
	fmt.Printf("p50/95/99 : %v / %v / %v\n", res.P50, res.P95, res.P99)
	fmt.Printf("throughput: %.3f batches/s (%.3f req/s)\n", res.ThroughputBatches(), res.ThroughputRequests())
	fmt.Printf("makespan  : %v\n", res.Makespan)
}

// renderBatch prints a single-node batch run: the text report, then
// -journal and -explain.
func renderBatch(c *scenario.Compiled, out *scenario.Outcome) {
	eng, res := out.Engine, out.Result
	fmt.Printf("node      : %s (%d GPUs, %s)\n", c.Node.Name, c.Node.NumGPUs, c.Node.Interconnect.Name)
	printModel(c, res.Runtime)
	fmt.Printf("trace     : %d batches x %d reqs, %s rate %.2f/s, phase %s\n",
		*batches, *batchSize, c.Trace.Process, *rate, c.Trace.Phase)
	printLatency(res)
	if d := c.Policy.Deadline; d > 0 {
		fmt.Printf("SLO %v    : %.1f%% missed, goodput %.3f batches/s\n", d, 100*res.DeadlineMissRate(d), res.Goodput(d))
	}
	for i, st := range eng.SimNode().Stats() {
		fmt.Printf("gpu%d      : compute %v, comm %v, overlap %v, kernels %d\n",
			i, st.ComputeBusy, st.CommBusy, st.OverlapBusy, st.KernelsRun)
	}
	if lg, ok := eng.Runtime().(interface{ Scheduler() *liger.Scheduler }); ok {
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
		rep := analyze.Analyze(out.Recorder, analyze.Options{Routing: *routing})
		fmt.Println()
		if err := rep.WriteText(os.Stdout, *topN); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nannotated timeline (gaps: l=launch d=dependency r=rendezvous R=recovery X=failed .=no-work):\n")
		tl := trace.NewTimeline(out.Recorder, 100)
		tl.SetGaps(rep.Gaps.GapMarks())
		if err := tl.Render(os.Stdout, 0, 0); err != nil {
			log.Fatal(err)
		}
	}
}

// renderFleet prints a fleet run's router-level report.
func renderFleet(c *scenario.Compiled, out *scenario.Outcome) {
	cl, res := c.Cluster, out.Result
	fmt.Printf("fleet     : %d replicas + %d spares of %s (%d GPUs each) over %s\n",
		cl.Nodes, cl.Spares, c.Node.Name, c.Node.NumGPUs, cl.Network.Name)
	printNetwork(cl.Network)
	printModel(c, res.Runtime)
	printLatency(res)
	fmt.Printf("outcomes  : %d completed, %d failed, %d shed, %d retries, %d hedges\n",
		res.Completed, res.Failed, res.Shed, res.Retries, res.Hedges)
	if res.Failovers > 0 || res.RecoveryTime > 0 {
		fmt.Printf("failover  : %d failovers, recovery %v\n", res.Failovers, res.RecoveryTime)
	}
	if d := c.Policy.Deadline; d > 0 {
		fmt.Printf("SLO %v    : %.1f%% missed, goodput %.3f batches/s\n", d, 100*res.SLOMissRate(), res.PolicyGoodput())
	}
}

// renderServing prints a continuous or disaggregated run's
// decode-serving report, then -explain. A disaggregated run's output
// is byte-identical at any -shards setting.
func renderServing(c *scenario.Compiled, out *scenario.Outcome) {
	res, plan := out.Result, c.Continuous
	if plan.Prefill == 0 {
		fmt.Printf("node      : %s (%d GPUs, %s)\n", c.Node.Name, c.Node.NumGPUs, c.Node.Interconnect.Name)
		printModel(c, res.Runtime)
		fmt.Printf("serving   : continuous, %d sequences (prompt %d + gen %d), poisson rate %.2f/s, pool %d, kv paged\n",
			plan.Sequences, plan.Prompt, plan.Gen, c.Rate, plan.Pool)
	} else {
		fmt.Printf("pools     : %d prefill + %d decode nodes of %s (%d GPUs each) over %s\n",
			plan.Prefill, plan.Decode, c.Node.Name, c.Node.NumGPUs, plan.Network.Name)
		printNetwork(plan.Network)
		printModel(c, res.Runtime)
		fmt.Printf("serving   : disaggregated, %d sequences (prompt %d + gen %d), poisson rate %.2f/s, pool %d per decode node\n",
			plan.Sequences, plan.Prompt, plan.Gen, c.Rate, plan.Pool)
		fmt.Printf("handoffs  : %d KV transfers, %.1f MB total\n", out.KVTransfers, float64(out.KVTransferBytes)/1e6)
	}
	fmt.Printf("ttft      : %v avg\n", res.TTFT)
	fmt.Printf("tpot      : %v avg\n", res.TPOT)
	fmt.Printf("p50/95/99 : %v / %v / %v\n", res.P50, res.P95, res.P99)
	fmt.Printf("makespan  : %v\n", res.Makespan)
	fmt.Printf("decode    : %d iterations, mean pool %.2f\n", res.Iterations, res.MeanPool)
	if res.Preemptions > 0 {
		fmt.Printf("preempted : %d sequences, %d tokens recomputed\n", res.Preemptions, res.RecomputedTokens)
	}
	if *explain {
		fmt.Println()
		if err := analyze.AnalyzeServing(out.Recorder).WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
