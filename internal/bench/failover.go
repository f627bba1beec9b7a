package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"liger/internal/core"
	"liger/internal/runner"
	"liger/internal/scenario"
	"liger/internal/serve"
)

// FailoverJSONName is the machine-readable artifact of the failover
// sweep (written into RunConfig.JSONDir when set).
const FailoverJSONName = "BENCH_failover.json"

// failoverInstants are the horizon fractions at which the sweep fails
// each device.
func failoverInstants(cfg RunConfig) []float64 {
	if cfg.Quick {
		return []float64{0.45}
	}
	return []float64{0.3, 0.6}
}

// failoverPoint identifies one simulation point of the sweep: fail
// device dev at atFrac of the horizon (dev < 0 is the fault-free
// baseline) and serve with kind.
type failoverPoint struct {
	kind   core.RuntimeKind
	dev    int
	atFrac float64
}

func failoverPoints(cfg RunConfig) []failoverPoint {
	var pts []failoverPoint
	for _, kind := range headlineKinds {
		pts = append(pts, failoverPoint{kind: kind, dev: -1})
	}
	for _, at := range failoverInstants(cfg) {
		for dev := 0; dev < a100Panel().node.NumGPUs; dev++ {
			for _, kind := range headlineKinds {
				pts = append(pts, failoverPoint{kind: kind, dev: dev, atFrac: at})
			}
		}
	}
	return pts
}

// failoverScenario is one point's serving run. Same testbed as chaos:
// OPT-30B on the 4xA100 node, whose 60 GB of weights re-shard from
// 15 GB/device to 20 GB/device after one failure, so three A100-40GB
// survivors can host the model: the sweep measures recovery, not OOM.
// The rate sits below intra-op saturation so the fault-free baselines
// are healthy; the 3-survivor world serves it with less headroom, the
// overload-during-recovery regime under test. A non-baseline point
// injects a permanent device-fail at the instant. Every point arms the
// collective watchdog, so the dying device's in-flight rendezvous abort
// instead of hanging.
func failoverScenario(pt failoverPoint, cfg RunConfig) *scenario.Scenario {
	sc := a100Panel().scenario(scenario.RelRate(0.75), cfg)
	sc.Name = "failover"
	sc.Policy = scenario.PolicySpec{
		Deadline:   scenario.SoloTime(10),
		Retries:    3,
		Backoff:    scenario.SoloTime(0.5),
		BackoffCap: scenario.SoloTime(4),
		// Bounded admission: the post-failover backlog sheds past 16
		// unresolved batches instead of compounding into the retry loop.
		QueueLimit: 16,
	}
	sc.Chaos.CollTimeout = chaosWatchdog
	if pt.dev >= 0 {
		sc.Chaos.Events = []scenario.ChaosEvent{{Kind: "device-fail", Device: pt.dev, Start: scenario.FracTime(pt.atFrac)}}
	}
	return sc
}

// failoverRow is one JSON record of the sweep.
type failoverRow struct {
	Runtime string  `json:"runtime"`
	Device  int     `json:"device"`
	AtFrac  float64 `json:"at_frac"`
	// Goodput is within-deadline throughput (batches/s); GoodputRetained
	// is its ratio to the same runtime's fault-free baseline.
	Goodput         float64 `json:"goodput"`
	GoodputRetained float64 `json:"goodput_retained"`
	// RecoveryMs is the runtime's reported time-to-recover: failure
	// instant to resumed service on the survivors.
	RecoveryMs float64 `json:"recovery_ms"`
	Failovers  int     `json:"failovers"`
	Shed       int     `json:"shed"`
	Deferred   int     `json:"deferred"`
	Retries    int     `json:"retries"`
	Failed     int     `json:"failed"`
	Completed  int     `json:"completed"`
}

// failoverReport is the full artifact: per-point rows plus the headline
// aggregates the experiment exists to measure.
type failoverReport struct {
	Batches  int           `json:"batches"`
	Seed     int64         `json:"seed"`
	Rows     []failoverRow `json:"rows"`
	Headline struct {
		// Mean goodput retained across every failure point, per runtime.
		GoodputRetained map[string]float64 `json:"goodput_retained"`
		// Mean time-to-recover across every failure point, per runtime.
		RecoveryMs map[string]float64 `json:"recovery_ms"`
		// LigerVsIntraRetained is Liger's mean retained goodput minus
		// Intra-Op's: positive means interleaving keeps more service alive
		// through the same failure.
		LigerVsIntraRetained float64 `json:"liger_vs_intra_retained"`
	} `json:"headline"`
}

// RunFailover is the elastic-failover experiment: permanently fail each
// device at several instants and measure, per runtime, how much
// within-deadline goodput survives, how long recovery takes, and how
// the bounded admission queue sheds/defers the backlog. Every point is
// an independent simulation, so the sweep is parallel and its output —
// table and JSON artifact — is byte-identical at any -parallel value.
func RunFailover(cfg RunConfig, w io.Writer) error {
	pts := failoverPoints(cfg)
	results, err := runner.Map(cfg.Parallel, len(pts), func(i int) (serve.Result, error) {
		return serveScenario(failoverScenario(pts[i], cfg), pts[i].kind, cfg)
	})
	if err != nil {
		return err
	}
	// Fault-free baselines (the first len(headlineKinds) points) anchor
	// the goodput-retained ratios.
	baseline := make(map[core.RuntimeKind]float64)
	for i, kind := range headlineKinds {
		baseline[kind] = results[i].PolicyGoodput()
	}
	rep := failoverReport{Batches: cfg.Batches, Seed: cfg.Seed}
	rep.Headline.GoodputRetained = make(map[string]float64)
	rep.Headline.RecoveryMs = make(map[string]float64)
	sumRetained := make(map[core.RuntimeKind]float64)
	sumRecovery := make(map[core.RuntimeKind]float64)
	failPoints := 0
	for i, pt := range pts {
		res := results[i]
		row := failoverRow{
			Runtime:    res.Runtime,
			Device:     pt.dev,
			AtFrac:     pt.atFrac,
			Goodput:    res.PolicyGoodput(),
			RecoveryMs: float64(res.RecoveryTime) / float64(time.Millisecond),
			Failovers:  res.Failovers,
			Shed:       res.Shed,
			Deferred:   res.Deferred,
			Retries:    res.Retries,
			Failed:     res.Failed,
			Completed:  res.Completed,
		}
		if base := baseline[pt.kind]; base > 0 {
			row.GoodputRetained = row.Goodput / base
		}
		if pt.dev >= 0 {
			sumRetained[pt.kind] += row.GoodputRetained
			sumRecovery[pt.kind] += row.RecoveryMs
			if pt.kind == headlineKinds[0] {
				failPoints++
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	if failPoints > 0 {
		for _, kind := range headlineKinds {
			name := kind.String()
			rep.Headline.GoodputRetained[name] = sumRetained[kind] / float64(failPoints)
			rep.Headline.RecoveryMs[name] = sumRecovery[kind] / float64(failPoints)
		}
		rep.Headline.LigerVsIntraRetained =
			(sumRetained[core.KindLiger] - sumRetained[core.KindIntraOp]) / float64(failPoints)
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "fail\truntime\tgoodput\tretained\trecovery\tshed\tdeferred\tretries\tfailed")
	for i, pt := range pts {
		row := rep.Rows[i]
		label := "none"
		if pt.dev >= 0 {
			label = fmt.Sprintf("dev%d@%.0f%%", pt.dev, 100*pt.atFrac)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.0f%%\t%s\t%d\t%d\t%d\t%d\n",
			label, row.Runtime, row.Goodput, 100*row.GoodputRetained,
			fmtDur(results[i].RecoveryTime), row.Shed, row.Deferred, row.Retries, row.Failed)
	}
	c, err := compile(failoverScenario(pts[0], cfg))
	if err != nil {
		return err
	}
	pol := c.Policy
	fmt.Fprintf(tw, "\npolicy: deadline %s, %d retries, backoff %s (cap %s), queue limit %d; watchdog %s; seed %d\n",
		fmtDur(pol.Deadline), pol.MaxRetries, fmtDur(pol.Backoff), fmtDur(pol.BackoffCap),
		pol.QueueLimit, fmtDur(c.Schedule.CollTimeout), cfg.Seed)
	if failPoints > 0 {
		fmt.Fprintf(tw, "headline: mean goodput retained across failures — Liger %.0f%%, Intra-Op %.0f%%, Inter-Op %.0f%% (Liger−Intra %+.0fpp)\n",
			100*rep.Headline.GoodputRetained["Liger"], 100*rep.Headline.GoodputRetained["Intra-Op"],
			100*rep.Headline.GoodputRetained["Inter-Op"], 100*rep.Headline.LigerVsIntraRetained)
	}
	fmt.Fprintln(tw, "extension: a permanent DeviceFail quiesces the epoch, rebuilds the communicator, re-shards weights onto the survivors, and resumes; arrivals during recovery are deferred or shed by the bounded admission queue")
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := writeJSON(cfg, FailoverJSONName, rep); err != nil {
		return err
	}
	return writeFailoverObservability(cfg, w)
}
