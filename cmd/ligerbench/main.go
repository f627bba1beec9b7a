// Command ligerbench regenerates the paper's tables and figures on the
// simulated testbeds.
//
//	ligerbench -list
//	ligerbench -exp fig10 -batches 300
//	ligerbench -exp all > results.txt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"liger/internal/bench"
	"liger/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ligerbench: ")

	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		batches  = flag.Int("batches", 150, "batch arrivals per data point (paper: 2000)")
		quick    = flag.Bool("quick", false, "trim sweeps to a few points")
		parallel = flag.Int("parallel", runner.DefaultWorkers(),
			"sweep executor workers (0 = serial); output is identical at any value")
		seed = flag.Int64("seed", 1,
			"random seed for traces and fault schedules; one seed reproduces a chaos run exactly")
		stragglerDev = flag.Int("straggler-dev", 2,
			"device index the straggler experiment slows (bounds-checked against the node)")
		csvDir   = flag.String("csv", "", "also write per-panel CSV sweep data into this directory")
		plotDir  = flag.String("plots", "", "also render per-panel SVG charts into this directory")
		jsonDir  = flag.String("json", "", "also write machine-readable artifacts (the chaos, failover, fleet and serving BENCH_*.json) into this directory")
		traceDir = flag.String("trace-dir", "", "failover experiment: also write per-runtime Chrome traces and metrics snapshots of one traced failure point into this directory")
		shards   = flag.Int("shards", 0,
			"worker count of the fleet experiment's sharded executor; single-node experiments ignore it (a node is one shard, see docs/PERF.md) and output is identical at any value")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q", flag.Arg(0))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-11s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.RunConfig{Batches: *batches, Quick: *quick, Parallel: *parallel,
		Seed: *seed, StragglerDevice: *stragglerDev, CSVDir: *csvDir, PlotDir: *plotDir,
		JSONDir: *jsonDir, TraceDir: *traceDir, Shards: *shards}
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Experiments()
	} else {
		e, err := bench.ByID(*exp)
		if err != nil {
			log.Fatal(err)
		}
		exps = []bench.Experiment{e}
	}
	if err := bench.RunAll(exps, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
