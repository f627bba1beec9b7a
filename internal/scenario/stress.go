package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"text/tabwriter"
	"time"

	"liger/internal/runner"
)

// The stress harness generates N randomized scenarios — fleet shape,
// workload mix, chaos schedule — from one master seed and serves every
// runtime through each, aggregating a survival report. Reproducibility
// is the contract: the same (N, seed) always yields byte-identical
// reports, at any -parallel or -shards setting, because each instance
// derives its own rand stream from the master seed and its index, and
// instances never share mutable state.

// StressConfig parameterizes one stress campaign.
type StressConfig struct {
	// N is the number of generated scenario instances.
	N int
	// Seed is the master seed; every instance derives from it.
	Seed int64
	// Parallel/Shards tune execution only (never results).
	Parallel int
	Shards   int
}

// stressModel keeps instances fast: the tiny spec exercises every
// scheduler path at a fraction of OPT-30B's kernel count.
const stressModel = "tiny"

// generateInstance builds the i-th randomized scenario of a campaign.
// Every draw comes from the instance's own stream, in a fixed order —
// adding a draw at the end never perturbs earlier fields.
func generateInstance(masterSeed int64, i int) *Scenario {
	rng := rand.New(rand.NewSource(mixSeed(masterSeed, int64(i), i)))
	presets := []string{"v100", "a100"}
	preset := presets[rng.Intn(len(presets))]
	gpus := []int{2, 4}[rng.Intn(2)]

	batches := 30 + rng.Intn(41) // 30..70
	sc := &Scenario{
		Name:  fmt.Sprintf("stress-%03d", i),
		Model: stressModel,
		Node:  NodeSpec{Preset: preset, GPUs: gpus},
		Workload: Workload{
			Batches: batches,
			Batch:   1 + rng.Intn(4),
			Rate:    RateSpec{relative: 0.5 + 0.4*rng.Float64()},
			Process: []string{"constant", "poisson", "bursty", "diurnal"}[rng.Intn(4)],
			Seq:     SeqRange{Min: 16, Max: 128},
			Seed:    masterSeed ^ int64(i)<<7,
		},
		Policy: PolicySpec{
			Deadline:   TimeSpec{kind: timeSolo, val: 8 + 8*rng.Float64()},
			Retries:    2 + rng.Intn(2),
			Backoff:    TimeSpec{kind: timeSolo, val: 0.5},
			BackoffCap: TimeSpec{kind: timeSolo, val: 4},
			QueueLimit: 8 + 4*rng.Intn(7), // 8..32
		},
		Chaos: Chaos{
			CollTimeout: TimeSpec{kind: timeSolo, val: 6},
		},
	}
	// 0–3 randomized window generators.
	windowKinds := []string{"slowdown", "link-degrade", "coll-stall", "device-drop"}
	for g, n := 0, rng.Intn(4); g < n; g++ {
		kind := windowKinds[rng.Intn(len(windowKinds))]
		gen := RandomChaos{
			Kind:     kind,
			Count:    1 + rng.Intn(3),
			Window:   [2]TimeSpec{{kind: timeFrac, val: 0.1}, {kind: timeFrac, val: 0.9}},
			Duration: TimeSpec{kind: timeFrac, val: 0.03 + 0.09*rng.Float64()},
			Seed:     int64(g + 1),
		}
		if kind == "slowdown" || kind == "link-degrade" {
			gen.Factor = 0.3 + 0.5*rng.Float64()
		}
		sc.Chaos.Random = append(sc.Chaos.Random, gen)
	}
	// A permanent device loss on a quarter of instances — only on
	// 4-GPU fleets, where the survivors can still host the model.
	if gpus >= 4 && rng.Float64() < 0.25 {
		sc.Chaos.Events = append(sc.Chaos.Events, ChaosEvent{
			Kind:   "device-fail",
			Device: rng.Intn(gpus),
			Start:  TimeSpec{kind: timeFrac, val: 0.3 + 0.4*rng.Float64()},
		})
	}
	return sc
}

// StressRow is one instance's outcome across the runtimes.
type StressRow struct {
	Instance int    `json:"instance"`
	Node     string `json:"node"`
	GPUs     int    `json:"gpus"`
	Batches  int    `json:"batches"`
	Process  string `json:"process"`
	Events   int    `json:"events"`
	// Err records an instance that could not even be compiled or
	// served — the run died rather than degraded.
	Err string `json:"err,omitempty"`
	// Runtimes holds the per-runtime serving outcome, keyed by name.
	Runtimes map[string]StressOutcome `json:"runtimes,omitempty"`
}

// StressOutcome is one runtime's fate on one instance.
type StressOutcome struct {
	// Survived means the run completed with at least one successful
	// batch and a majority success rate — the fleet kept serving.
	Survived    bool    `json:"survived"`
	Goodput     float64 `json:"goodput"`
	SLOMiss     float64 `json:"slo_miss"`
	SuccessRate float64 `json:"success_rate"`
	Failed      int     `json:"failed"`
	Shed        int     `json:"shed"`
	RecoveryMs  float64 `json:"recovery_ms"`
	// Err records a runtime that died mid-run (e.g. re-shard
	// impossible after a failure); the others still report.
	Err string `json:"err,omitempty"`
}

// StressReport aggregates a campaign.
type StressReport struct {
	N    int         `json:"n"`
	Seed int64       `json:"seed"`
	Rows []StressRow `json:"rows"`
	// Survived counts surviving runs per runtime (out of N).
	Survived map[string]int `json:"survived"`
	// MeanGoodput / MeanSLOMiss average over the instances a runtime
	// survived.
	MeanGoodput map[string]float64 `json:"mean_goodput"`
	MeanSLOMiss map[string]float64 `json:"mean_slo_miss"`
	Died        int                `json:"died"`
}

// Stress runs a campaign. Instance failures are outcomes, not errors:
// a scenario that kills a runtime is exactly what the harness exists
// to find, so it lands in the report instead of aborting the campaign.
func Stress(cfg StressConfig) (*StressReport, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("scenario: stress needs a positive instance count, got %d", cfg.N)
	}
	rows, err := runner.Map(cfg.Parallel, cfg.N, func(i int) (StressRow, error) {
		return runStressInstance(cfg, i), nil
	})
	if err != nil {
		return nil, err
	}
	rep := &StressReport{
		N:           cfg.N,
		Seed:        cfg.Seed,
		Rows:        rows,
		Survived:    make(map[string]int),
		MeanGoodput: make(map[string]float64),
		MeanSLOMiss: make(map[string]float64),
	}
	counts := make(map[string]int)
	for _, row := range rows {
		if row.Err != "" {
			rep.Died++
			continue
		}
		for name, out := range row.Runtimes {
			if out.Err != "" || !out.Survived {
				continue
			}
			rep.Survived[name]++
			rep.MeanGoodput[name] += out.Goodput
			rep.MeanSLOMiss[name] += out.SLOMiss
			counts[name]++
		}
	}
	for name, n := range counts {
		rep.MeanGoodput[name] /= float64(n)
		rep.MeanSLOMiss[name] /= float64(n)
	}
	return rep, nil
}

// runStressInstance generates, compiles, and serves one instance.
func runStressInstance(cfg StressConfig, i int) StressRow {
	sc := generateInstance(cfg.Seed, i)
	row := StressRow{Instance: i, Node: sc.Node.Preset, GPUs: sc.Node.GPUs,
		Batches: sc.Workload.Batches, Process: sc.Workload.Process}
	if err := sc.Validate(); err != nil {
		row.Err = err.Error()
		return row
	}
	c, err := Compile(sc)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Events = len(c.Schedule.Events)
	row.Runtimes = make(map[string]StressOutcome, len(c.Kinds))
	names := sc.ResultRuntimes()
	for k, kind := range c.Kinds {
		run, err := RunOne(c, kind, RunOptions{Shards: cfg.Shards})
		out := StressOutcome{}
		if err != nil {
			out.Err = err.Error()
		} else {
			res := run.Result
			out = StressOutcome{
				Survived:    res.Completed > 0 && res.SuccessRate() >= 0.5,
				Goodput:     res.PolicyGoodput(),
				SLOMiss:     res.SLOMissRate(),
				SuccessRate: res.SuccessRate(),
				Failed:      res.Failed,
				Shed:        res.Shed,
				RecoveryMs:  float64(res.RecoveryTime) / float64(time.Millisecond),
			}
		}
		row.Runtimes[names[k]] = out
	}
	return row
}

// WriteText renders the deterministic survival report.
func (r *StressReport) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "stress    : %d instances, master seed %d, model %s\n", r.N, r.Seed, stressModel)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	names := r.runtimeNames()
	header := "instance\tnode\tbatches\tprocess\tevents"
	for _, n := range names {
		header += "\t" + n
	}
	fmt.Fprintln(tw, header)
	for _, row := range r.Rows {
		line := fmt.Sprintf("%03d\t%s/%d\t%d\t%s\t%d", row.Instance, row.Node, row.GPUs,
			row.Batches, row.Process, row.Events)
		if row.Err != "" {
			line += fmt.Sprintf("\tDIED: %s", row.Err)
		} else {
			for _, n := range names {
				out, ok := row.Runtimes[n]
				switch {
				case !ok:
					line += "\t-"
				case out.Err != "":
					line += "\tdied"
				case !out.Survived:
					line += fmt.Sprintf("\tLOST %.0f%%", 100*(1-out.SuccessRate))
				default:
					line += fmt.Sprintf("\tok %.2f", out.Goodput)
				}
			}
		}
		fmt.Fprintln(tw, line)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "survival:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-9s %d/%d survived, mean goodput %.2f, mean SLO-miss %.1f%%\n",
			n, r.Survived[n], r.N-r.Died, r.MeanGoodput[n], 100*r.MeanSLOMiss[n])
	}
	if r.Died > 0 {
		fmt.Fprintf(w, "  %d instance(s) failed to build\n", r.Died)
	}
	return nil
}

// runtimeNames returns every runtime seen across rows, sorted.
func (r *StressReport) runtimeNames() []string {
	seen := make(map[string]bool)
	for _, row := range r.Rows {
		for n := range row.Runtimes {
			seen[n] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON renders the machine-readable survival report.
func (r *StressReport) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
