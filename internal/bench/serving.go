package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/runner"
	"liger/internal/scenario"
	"liger/internal/serve"
)

// ServingJSONName is the machine-readable artifact of the continuous-
// serving sweep (written into RunConfig.JSONDir when set).
const ServingJSONName = "BENCH_serving.json"

// servingSetup fixes the continuous-batching experiment's shared knobs
// so the experiment driver, its determinism test, and the CI smoke
// agree.
type servingSetup struct {
	nodeKey   string
	spec      model.Spec
	prompt    int
	gen       int
	pools     []int
	fractions []float64
	kinds     []core.RuntimeKind
	// capacity is the analytic rate (sequences/s) at which one prompt's
	// intra-op prefill saturates the node; the arrival-rate sweep is
	// expressed as fractions of it so the points straddle saturation.
	capacity float64
}

func newServingSetup(cfg RunConfig) servingSetup {
	// Same testbed as the fleet sweep — OPT-30B on the 4xA100 node — but
	// serving generative traffic: each sequence prefills a 96-token
	// prompt and then decodes 32 tokens one iteration at a time. The
	// sweep crosses the saturation point (1.1x) where admission control
	// and pool sizing start to matter.
	node := hw.A100Node()
	spec := model.OPT30B()
	prompt, gen := 96, 32
	fractions := []float64{0.5, 0.8, 1.1}
	pools := []int{8, 16}
	if cfg.Quick {
		fractions = []float64{0.8}
		pools = []int{8}
	}
	return servingSetup{
		nodeKey:   "a100",
		spec:      spec,
		prompt:    prompt,
		gen:       gen,
		pools:     pools,
		fractions: fractions,
		kinds:     []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp},
		capacity:  parallel.IntraOpCapacity(node, spec, model.Workload{Batch: 1, SeqLen: prompt, Phase: model.Context}),
	}
}

// servingPoint identifies one simulation of the sweep: Kind serving
// cfg.Batches sequences arriving at Frac of prefill capacity with a
// Pool-sequence decode batch.
type servingPoint struct {
	kind core.RuntimeKind
	frac float64
	pool int
}

func (s servingSetup) points() []servingPoint {
	var pts []servingPoint
	for _, pool := range s.pools {
		for _, frac := range s.fractions {
			for _, kind := range s.kinds {
				pts = append(pts, servingPoint{kind: kind, frac: frac, pool: pool})
			}
		}
	}
	return pts
}

// runServingPoint serves one point through the scenario runner:
// continuous batching over the paged KV allocator on a single node.
// trace arms the run's recorder, which observes the batcher's
// iterations, sequence lifecycles and KV block events (tracing never
// changes results).
func runServingPoint(s servingSetup, pt servingPoint, cfg RunConfig, trace bool) (*scenario.Outcome, error) {
	c, err := scenario.Compile(&scenario.Scenario{
		Name:  "serving",
		Model: s.spec.Name,
		Node:  scenario.NodeSpec{Preset: s.nodeKey},
		Workload: scenario.Workload{
			Mode: "continuous", Batches: cfg.Batches, Rate: scenario.AbsRate(pt.frac * s.capacity),
			Prompt: s.prompt, Gen: s.gen, Pool: pt.pool, Seed: cfg.Seed,
		},
		KV: &scenario.KVSpec{},
	})
	if err != nil {
		return nil, err
	}
	return scenario.RunOne(c, pt.kind, scenario.RunOptions{Trace: trace})
}

// servingRow is one JSON record of the sweep.
type servingRow struct {
	Runtime  string  `json:"runtime"`
	RateFrac float64 `json:"rate_frac"`
	Pool     int     `json:"pool"`
	// TTFTMs is mean time-to-first-token (arrival to end of prefill);
	// TPOTMs is mean time-per-output-token over the decode phase.
	TTFTMs      float64 `json:"ttft_ms"`
	TPOTMs      float64 `json:"tpot_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MakespanMs  float64 `json:"makespan_ms"`
	MeanPool    float64 `json:"mean_pool"`
	Iterations  int     `json:"iterations"`
	Preemptions int     `json:"preemptions"`
	// RecomputedTokens is the prefill work repaid by preempted sequences'
	// resumes (0 when nothing was evicted).
	RecomputedTokens int `json:"recomputed_tokens"`
	Completed        int `json:"completed"`
}

// servingReport is the full artifact: per-point rows plus the headline
// aggregates the experiment exists to measure.
type servingReport struct {
	Batches  int          `json:"batches"`
	Prompt   int          `json:"prompt"`
	Gen      int          `json:"gen"`
	Seed     int64        `json:"seed"`
	Rows     []servingRow `json:"rows"`
	Headline struct {
		// Mean TPOT across every sweep point, per runtime.
		TPOTMs map[string]float64 `json:"tpot_ms"`
		// Mean TTFT across every sweep point, per runtime.
		TTFTMs map[string]float64 `json:"ttft_ms"`
		// LigerVsIntraTPOT is Liger's mean TPOT over Intra-Op's: ~1.0 means
		// interleaving holds parity on decode traffic (iteration-level
		// batches are too comm-light to hide much), while inter-op's deep
		// queues pay multiples on every latency metric.
		LigerVsIntraTPOT float64 `json:"liger_vs_intra_tpot"`
	} `json:"headline"`
}

// buildServingReport runs the sweep and aggregates it; shared by the
// experiment driver and the pinned tests.
func buildServingReport(s servingSetup, cfg RunConfig) (servingReport, []servingPoint, error) {
	pts := s.points()
	results, err := runner.Map(cfg.Parallel, len(pts), func(i int) (serve.Result, error) {
		out, err := runServingPoint(s, pts[i], cfg, false)
		if err != nil {
			return serve.Result{}, err
		}
		return out.Result, nil
	})
	if err != nil {
		return servingReport{}, nil, err
	}
	rep := servingReport{Batches: cfg.Batches, Prompt: s.prompt, Gen: s.gen, Seed: cfg.Seed}
	rep.Headline.TPOTMs = make(map[string]float64)
	rep.Headline.TTFTMs = make(map[string]float64)
	sumTPOT := make(map[core.RuntimeKind]float64)
	sumTTFT := make(map[core.RuntimeKind]float64)
	perKind := len(pts) / len(s.kinds)
	for i, pt := range pts {
		res := results[i]
		rep.Rows = append(rep.Rows, servingRow{
			Runtime:          pt.kind.String(),
			RateFrac:         pt.frac,
			Pool:             pt.pool,
			TTFTMs:           float64(res.TTFT) / float64(time.Millisecond),
			TPOTMs:           float64(res.TPOT) / float64(time.Millisecond),
			P99Ms:            float64(res.P99) / float64(time.Millisecond),
			MakespanMs:       float64(res.Makespan) / float64(time.Millisecond),
			MeanPool:         res.MeanPool,
			Iterations:       res.Iterations,
			Preemptions:      res.Preemptions,
			RecomputedTokens: res.RecomputedTokens,
			Completed:        res.Completed,
		})
		sumTPOT[pt.kind] += float64(res.TPOT) / float64(time.Millisecond)
		sumTTFT[pt.kind] += float64(res.TTFT) / float64(time.Millisecond)
	}
	if perKind > 0 {
		for _, kind := range s.kinds {
			name := kind.String()
			rep.Headline.TPOTMs[name] = sumTPOT[kind] / float64(perKind)
			rep.Headline.TTFTMs[name] = sumTTFT[kind] / float64(perKind)
		}
		if intra := sumTPOT[core.KindIntraOp]; intra > 0 {
			rep.Headline.LigerVsIntraTPOT = sumTPOT[core.KindLiger] / intra
		}
	}
	return rep, pts, nil
}

// RunServing is the continuous-serving experiment: generative sequences
// (96-token prompt, 32 decode tokens) arrive Poisson at fractions of
// the node's prefill capacity and are served with iteration-level
// continuous batching over the paged KV allocator, sweeping arrival
// rate x decode-pool size x runtime. Every point is an independent
// simulation, so the sweep parallelizes and its output — table and
// JSON artifact — is byte-identical at any -parallel or -shards value.
func RunServing(cfg RunConfig, w io.Writer) error {
	s := newServingSetup(cfg)
	rep, pts, err := buildServingReport(s, cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pool\trate\truntime\tttft\ttpot\tp99\tmakespan\titers\tmean-pool\tpreempted")
	for i, pt := range pts {
		row := rep.Rows[i]
		fmt.Fprintf(tw, "%d\t%.1fx\t%s\t%.1fms\t%.2fms\t%.1fms\t%.0fms\t%d\t%.2f\t%d\n",
			pt.pool, pt.frac, row.Runtime, row.TTFTMs, row.TPOTMs, row.P99Ms,
			row.MakespanMs, row.Iterations, row.MeanPool, row.Preemptions)
	}
	fmt.Fprintf(tw, "\ntraffic: %d sequences of prompt %d + gen %d, poisson at fractions of %.1f seq/s prefill capacity; paged KV, seed %d\n",
		cfg.Batches, s.prompt, s.gen, s.capacity, cfg.Seed)
	if len(rep.Headline.TPOTMs) > 0 {
		fmt.Fprintf(tw, "headline: mean TPOT — Liger %.2fms, Intra-Op %.2fms, Inter-Op %.2fms (Liger/Intra %.2fx)\n",
			rep.Headline.TPOTMs["Liger"], rep.Headline.TPOTMs["Intra-Op"],
			rep.Headline.TPOTMs["Inter-Op"], rep.Headline.LigerVsIntraTPOT)
	}
	fmt.Fprintln(tw, "extension: iteration-level scheduling admits sequences against the paged KV budget instead of a worst-case reservation; decode batches are comm-light, so the honest claim is Liger at parity with intra-op while inter-op's pipeline depth multiplies TTFT")
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := writeJSON(cfg, ServingJSONName, rep); err != nil {
		return err
	}
	return writeServingObservability(s, cfg, w)
}
