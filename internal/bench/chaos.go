package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"liger/internal/runner"
	"liger/internal/scenario"
	"liger/internal/serve"
)

// RobustnessJSONName is the machine-readable artifact of the chaos
// sweep (written into RunConfig.JSONDir when set).
const RobustnessJSONName = "BENCH_robustness.json"

// chaosRow is one JSON record of the sweep: a (scenario, runtime) point.
type chaosRow struct {
	Scenario string `json:"scenario"`
	Runtime  string `json:"runtime"`
	// Goodput is within-deadline throughput (batches/s).
	Goodput    float64 `json:"goodput"`
	P99Ms      float64 `json:"p99_ms"`
	Retries    int     `json:"retries"`
	Failed     int     `json:"failed"`
	SLOMissPct float64 `json:"slo_miss_pct"`
}

// chaosReport is the full artifact, one row per table line.
type chaosReport struct {
	Batches int        `json:"batches"`
	Seed    int64      `json:"seed"`
	Rows    []chaosRow `json:"rows"`
}

// chaosWatchdog is the collective watchdog of the presets with hang
// semantics: several solo batch durations, so merely-slow collectives
// never trip it and hung ones always do.
var chaosWatchdog = scenario.SoloTime(4)

// chaosPreset is one named fault plan of the chaos experiment. Its
// chaos section places every window at fractions of the horizon and
// draws the faulty device of a node of the given size from the seed, so
// one seed yields one plan.
type chaosPreset struct {
	name, description string
	chaos             func(devices int, seed int64) scenario.Chaos
}

// chaosPresets returns the fault-free baseline and the fault presets in
// presentation order.
func chaosPresets() []chaosPreset {
	return []chaosPreset{
		{"none", "fault-free baseline", func(int, int64) scenario.Chaos { return scenario.Chaos{} }},
		{"transient-straggler", "one GPU thermally throttles to 55% mid-run, then recovers",
			func(devices int, seed int64) scenario.Chaos {
				dev := rand.New(rand.NewSource(seed)).Intn(devices)
				return scenario.Chaos{Events: []scenario.ChaosEvent{{Kind: "slowdown", Device: dev,
					Start: scenario.FracTime(0.25), Duration: scenario.FracTime(0.40), Factor: 0.55}}}
			}},
		{"flaky-link", "one GPU's link flaps to 30% bandwidth in recurring jittered windows",
			func(devices int, seed int64) scenario.Chaos {
				rng := rand.New(rand.NewSource(seed))
				dev := rng.Intn(devices)
				// Four windows of 8% of the run each, spread across the
				// middle 80% with per-window jitter.
				var evs []scenario.ChaosEvent
				for i := 0; i < 4; i++ {
					base := 0.10 + 0.20*float64(i)
					jitter := 0.04 * rng.Float64()
					evs = append(evs, scenario.ChaosEvent{Kind: "link-degrade", Device: dev,
						Start: scenario.FracTime(base + jitter), Duration: scenario.FracTime(0.08), Factor: 0.30})
				}
				return scenario.Chaos{Events: evs}
			}},
		{"coll-stall", "one GPU's collectives hang in a window; the watchdog aborts them for retry",
			func(devices int, seed int64) scenario.Chaos {
				dev := rand.New(rand.NewSource(seed)).Intn(devices)
				return scenario.Chaos{CollTimeout: chaosWatchdog, Events: []scenario.ChaosEvent{{Kind: "coll-stall",
					Device: dev, Start: scenario.FracTime(0.35), Duration: scenario.FracTime(0.15)}}}
			}},
		{"drop-restore", "one GPU falls off the bus for a window, then restores; collectives abort for retry",
			func(devices int, seed int64) scenario.Chaos {
				dev := rand.New(rand.NewSource(seed)).Intn(devices)
				return scenario.Chaos{CollTimeout: chaosWatchdog, Events: []scenario.ChaosEvent{{Kind: "device-drop",
					Device: dev, Start: scenario.FracTime(0.45), Duration: scenario.FracTime(0.12)}}}
			}},
		{"dead-device", "one GPU throttles, then fails permanently; the runtime re-plans onto the survivors",
			func(devices int, seed int64) scenario.Chaos {
				dev := rand.New(rand.NewSource(seed)).Intn(devices)
				// A dying-hardware shape: thermal distress first, then the
				// device falls off for good.
				return scenario.Chaos{CollTimeout: chaosWatchdog, Events: []scenario.ChaosEvent{
					{Kind: "slowdown", Device: dev, Start: scenario.FracTime(0.30), Duration: scenario.FracTime(0.15), Factor: 0.60},
					{Kind: "device-fail", Device: dev, Start: scenario.FracTime(0.45)},
				}}
			}},
	}
}

// chaosScenario is the chaos experiment's serving point under one
// preset: the A100 testbed at 85% of intra-op capacity, served under a
// deadline/retry policy in solo batch durations.
func chaosScenario(pr chaosPreset, cfg RunConfig) *scenario.Scenario {
	p := a100Panel()
	sc := p.scenario(scenario.RelRate(0.85), cfg)
	sc.Name = pr.name
	sc.Description = pr.description
	sc.Policy = scenario.PolicySpec{
		Deadline:   scenario.SoloTime(10),
		Retries:    3,
		Backoff:    scenario.SoloTime(0.5),
		BackoffCap: scenario.SoloTime(4),
	}
	sc.Chaos = pr.chaos(p.node.NumGPUs, cfg.Seed)
	return sc
}

// RunChaos is the robustness extension's headline experiment: every
// runtime serves the same trace under each deterministic fault scenario
// with a deadline/retry policy, and we report goodput (within-deadline
// throughput), tail latency, retries, outright failures, and SLO-miss
// rate. Liger serves faulted runs with degradation-aware re-planning
// on, so the scheduler backs off interleaving while a device is
// degraded.
func RunChaos(cfg RunConfig, w io.Writer) error {
	presets := chaosPresets()
	kinds := headlineKinds
	results, err := runner.Map(cfg.Parallel, len(presets)*len(kinds), func(i int) (serve.Result, error) {
		return serveScenario(chaosScenario(presets[i/len(kinds)], cfg), kinds[i%len(kinds)], cfg)
	})
	if err != nil {
		return err
	}
	rep := chaosReport{Batches: cfg.Batches, Seed: cfg.Seed}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\truntime\tgoodput\tp99 lat\tretries\tfailed\tSLO-miss")
	for pi, pr := range presets {
		for ki, kind := range kinds {
			res := results[pi*len(kinds)+ki]
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%d\t%d\t%.1f%%\n",
				pr.name, kind, res.PolicyGoodput(), fmtDur(res.P99),
				res.Retries, res.Failed, 100*res.SLOMissRate())
			rep.Rows = append(rep.Rows, chaosRow{
				Scenario:   pr.name,
				Runtime:    res.Runtime,
				Goodput:    res.PolicyGoodput(),
				P99Ms:      float64(res.P99) / float64(time.Millisecond),
				Retries:    res.Retries,
				Failed:     res.Failed,
				SLOMissPct: 100 * res.SLOMissRate(),
			})
		}
	}
	c, err := compile(chaosScenario(presets[0], cfg))
	if err != nil {
		return err
	}
	pol := c.Policy
	fmt.Fprintf(tw, "\npolicy: deadline %s, %d retries, backoff %s (cap %s); collective watchdog %s; seed %d\n",
		fmtDur(pol.Deadline), pol.MaxRetries, fmtDur(pol.Backoff), fmtDur(pol.BackoffCap),
		fmtDur(chaosWatchdog.Resolve(c.Horizon, c.Solo)), cfg.Seed)
	fmt.Fprintln(tw, "extension: stall/drop scenarios surface as aborted collectives that the serving layer retries; degradation-aware re-planning sheds interleaving only while a device is effectively unusable and rides out uniform slowdowns by design")
	if err := tw.Flush(); err != nil {
		return err
	}
	return writeJSON(cfg, RobustnessJSONName, rep)
}
