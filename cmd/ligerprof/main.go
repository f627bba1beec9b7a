// Command ligerprof runs Liger's offline preprocessing procedure
// (Fig. 5): it profiles solo kernel durations for a model/workload on a
// node and measures the contention factors (§3.5), emitting a JSON
// profile. The runtime trace is what the function assembler's duration
// fields come from; the contention factor feeds the scheduling
// algorithm.
//
//	ligerprof -node v100 -model OPT-30B -batch 2 -seq 64 > profile.json
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"time"

	"liger/internal/core"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/serve"
	"liger/internal/trace"
)

// kernelProfile is one profiled kernel.
type kernelProfile struct {
	Name       string        `json:"name"`
	Class      string        `json:"class"`
	Duration   time.Duration `json:"duration_ns"`
	Collective bool          `json:"collective,omitempty"`
	Bytes      int64         `json:"bytes,omitempty"`
}

// profile is the emitted document.
type profile struct {
	Node             string          `json:"node"`
	Model            string          `json:"model"`
	Batch            int             `json:"batch"`
	SeqLen           int             `json:"seq_len"`
	Kernels          []kernelProfile `json:"kernels"`
	ContentionFactor float64         `json:"contention_factor"`
	ComputeFactor    float64         `json:"compute_factor"`
	CommFactor       float64         `json:"comm_factor"`
	PairsProfiled    int             `json:"pairs_profiled"`
	Engine           *engineStats    `json:"engine,omitempty"`
}

// engineStats is the -engine-stats section: DES-core counters measured
// by serving a short calibration trace on the profiled configuration.
type engineStats struct {
	// EventsFired and WallNS give the headline events/sec.
	EventsFired  uint64  `json:"events_fired"`
	WallNS       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	// SimulatedNS is the virtual time the calibration run covered.
	SimulatedNS int64 `json:"simulated_ns"`
	// MaxPending is the queue-occupancy high-water mark; Compactions,
	// Reloads, Rebases, Resizes and FarPushes expose the calendar
	// queue's adaptation behaviour (see docs/PERF.md).
	MaxPending  int    `json:"max_pending"`
	Compactions uint64 `json:"compactions"`
	Reloads     uint64 `json:"reloads"`
	Rebases     uint64 `json:"rebases"`
	Resizes     uint64 `json:"resizes"`
	FarPushes   uint64 `json:"far_pushes"`
	// BySubsystem decomposes scheduled events by origin.
	BySubsystem gpusim.EventCounters `json:"by_subsystem"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ligerprof: ")
	var (
		nodeName  = flag.String("node", "v100", "node preset: v100 or a100")
		modelName = flag.String("model", "OPT-30B", "model to profile")
		batch     = flag.Int("batch", 2, "batch size")
		seq       = flag.Int("seq", 64, "sequence length")
		layersOne = flag.Bool("onelayer", true, "profile a single layer (models stack identical layers)")
		engStats  = flag.Bool("engine-stats", false,
			"also serve a short calibration trace and report DES-core counters: events/sec, queue occupancy, per-subsystem event mix")
		engBatches = flag.Int("engine-batches", 50, "batch arrivals for the -engine-stats calibration run")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q", flag.Arg(0))
	}

	node, err := hw.Preset(*nodeName)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := model.ByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	profiled := spec
	if *layersOne {
		profiled = spec.WithLayers(1)
	}
	comp := parallel.NewCompiler(node, nccl.Config{ReducedChannels: true})
	w := model.Workload{Batch: *batch, SeqLen: *seq, Phase: model.Context}
	kernels, err := comp.IntraOp(profiled, node.NumGPUs, w)
	if err != nil {
		log.Fatal(err)
	}

	durs, err := trace.SoloProfile(node, kernels)
	if err != nil {
		log.Fatal(err)
	}
	doc := profile{Node: node.Name, Model: spec.Name, Batch: *batch, SeqLen: *seq}
	var computeKs, commKs []parallel.KernelDesc
	for i, k := range kernels {
		doc.Kernels = append(doc.Kernels, kernelProfile{
			Name:       k.Name,
			Class:      k.Class.String(),
			Duration:   durs[i],
			Collective: k.Collective,
			Bytes:      k.Bytes,
		})
		if k.Class == gpusim.Comm {
			commKs = append(commKs, k)
		} else if k.CanSplit() {
			computeKs = append(computeKs, k) // the lengthy GEMMs
		}
	}

	rep, err := trace.MeasureContention(node, computeKs, commKs)
	if err != nil {
		log.Fatal(err)
	}
	doc.ContentionFactor = rep.MaxFactor
	doc.ComputeFactor = rep.ComputeFactor
	doc.CommFactor = rep.CommFactor
	doc.PairsProfiled = rep.Pairs

	if *engStats {
		es, err := measureEngine(node, spec, *batch, *engBatches)
		if err != nil {
			log.Fatal(err)
		}
		doc.Engine = es
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

// measureEngine serves a short Liger trace on the profiled configuration
// and collects the DES-core counters. Wall time (and therefore
// events/sec) is host-dependent by nature; every other field is
// deterministic.
func measureEngine(node hw.Node, spec model.Spec, batch, batches int) (*engineStats, error) {
	eng, err := core.NewEngine(core.Options{Node: node, Model: spec, Runtime: core.KindLiger})
	if err != nil {
		return nil, err
	}
	tc := serve.TraceConfig{Batches: batches, BatchSize: batch,
		RatePerSec: 20, MinSeq: 16, MaxSeq: 128, Seed: 1}
	trc, err := serve.Generate(tc)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := eng.Serve(trc); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	clk := eng.Clock()
	st := clk.Stats()
	es := &engineStats{
		EventsFired: clk.Fired(),
		WallNS:      wall.Nanoseconds(),
		SimulatedNS: clk.Now().Nanoseconds(),
		MaxPending:  st.MaxPending,
		Compactions: st.Compactions,
		Reloads:     st.Reloads,
		Rebases:     st.Rebases,
		Resizes:     st.Resizes,
		FarPushes:   st.FarPushes,
		BySubsystem: eng.SimNode().EventCounters(),
	}
	if wall > 0 {
		es.EventsPerSec = float64(es.EventsFired) / wall.Seconds()
	}
	return es, nil
}
