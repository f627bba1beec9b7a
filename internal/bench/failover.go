package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/runner"
	"liger/internal/serve"
)

// FailoverJSONName is the machine-readable artifact of the failover
// sweep (written into RunConfig.JSONDir when set).
const FailoverJSONName = "BENCH_failover.json"

// failoverSetup fixes the failover experiment's shared knobs so the
// experiment driver, its determinism test, and the CI smoke agree.
type failoverSetup struct {
	p        panel
	rate     float64
	horizon  time.Duration
	timeout  time.Duration
	pol      serve.Policy
	instants []float64
	kinds    []core.RuntimeKind
}

func newFailoverSetup(cfg RunConfig) failoverSetup {
	// Same testbed as chaos: OPT-30B on the 4×A100 node. The 60 GB of
	// weights re-shard from 15 GB/device to 20 GB/device after one
	// failure, so three A100-40GB survivors can host the model — the
	// sweep measures recovery, not OOM.
	p := panel{nodeKey: "a100", node: hw.A100Node(), spec: model.OPT30B(), batch: 2, phase: model.Context}
	// Below intra-op saturation so the fault-free baselines are healthy;
	// the 3-survivor world serves the same rate with less headroom, which
	// is exactly the overload-during-recovery regime under test.
	rate := 0.75 * intraCapacity(p)
	solo := time.Duration(float64(time.Second) / intraCapacity(p))
	horizon := time.Duration(float64(cfg.Batches) / rate * float64(time.Second))
	instants := []float64{0.3, 0.6}
	if cfg.Quick {
		instants = []float64{0.45}
	}
	return failoverSetup{
		p:       p,
		rate:    rate,
		horizon: horizon,
		timeout: 4 * solo,
		pol: serve.Policy{
			Deadline:   10 * solo,
			MaxRetries: 3,
			Backoff:    solo / 2,
			BackoffCap: 4 * solo,
			// Bounded admission: the post-failover backlog sheds past 16
			// unresolved batches instead of compounding into the retry loop.
			QueueLimit: 16,
		},
		instants: instants,
		kinds:    []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp},
	}
}

// failoverPoint identifies one simulation point of the sweep: fail
// device Dev at AtFrac of the horizon (Dev < 0 is the fault-free
// baseline) and serve with Kind.
type failoverPoint struct {
	kind   core.RuntimeKind
	dev    int
	atFrac float64
}

func (s failoverSetup) points() []failoverPoint {
	var pts []failoverPoint
	for _, kind := range s.kinds {
		pts = append(pts, failoverPoint{kind: kind, dev: -1})
	}
	for _, at := range s.instants {
		for dev := 0; dev < s.p.node.NumGPUs; dev++ {
			for _, kind := range s.kinds {
				pts = append(pts, failoverPoint{kind: kind, dev: dev, atFrac: at})
			}
		}
	}
	return pts
}

// runFailoverPoint serves one point. A non-baseline point injects a
// permanent DeviceFail at the instant plus the collective watchdog (so
// the dying device's in-flight rendezvous abort instead of hanging).
// tracer, when non-nil, receives the point's full kernel/collective/
// fault event stream (the sweep itself runs untraced).
func runFailoverPoint(s failoverSetup, pt failoverPoint, cfg RunConfig, tracer gpusim.Tracer) (serve.Result, error) {
	opts := core.Options{Node: s.p.node, Model: s.p.spec, Runtime: pt.kind, Tracer: tracer}
	sched := faults.Schedule{CollTimeout: s.timeout}
	if pt.dev >= 0 {
		sched.Events = []faults.Event{{
			Kind:   faults.DeviceFail,
			Device: pt.dev,
			Start:  time.Duration(pt.atFrac * float64(s.horizon)),
		}}
	}
	opts.Faults = &sched
	eng, err := core.NewEngine(opts)
	if err != nil {
		return serve.Result{}, err
	}
	trace, err := genTrace(s.p, s.rate, cfg)
	if err != nil {
		return serve.Result{}, err
	}
	return eng.ServePolicy(trace, s.pol)
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
	s := newFailoverSetup(cfg)
	pts := s.points()
	results, err := runner.Map(cfg.Parallel, len(pts), func(i int) (serve.Result, error) {
		return runFailoverPoint(s, pts[i], cfg, nil)
	})
	if err != nil {
		return err
	}
	// Fault-free baselines (the first len(kinds) points) anchor the
	// goodput-retained ratios.
	baseline := make(map[core.RuntimeKind]float64)
	for i, kind := range s.kinds {
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
			if pt.kind == s.kinds[0] {
				failPoints++
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	if failPoints > 0 {
		for _, kind := range s.kinds {
			name := kindName(kind, results, pts)
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
	fmt.Fprintf(tw, "\npolicy: deadline %s, %d retries, backoff %s (cap %s), queue limit %d; watchdog %s; seed %d\n",
		fmtDur(s.pol.Deadline), s.pol.MaxRetries, fmtDur(s.pol.Backoff), fmtDur(s.pol.BackoffCap),
		s.pol.QueueLimit, fmtDur(s.timeout), cfg.Seed)
	if failPoints > 0 {
		fmt.Fprintf(tw, "headline: mean goodput retained across failures — Liger %.0f%%, Intra-Op %.0f%%, Inter-Op %.0f%% (Liger−Intra %+.0fpp)\n",
			100*rep.Headline.GoodputRetained["Liger"], 100*rep.Headline.GoodputRetained["Intra-Op"],
			100*rep.Headline.GoodputRetained["Inter-Op"], 100*rep.Headline.LigerVsIntraRetained)
	}
	fmt.Fprintln(tw, "extension: a permanent DeviceFail quiesces the epoch, rebuilds the communicator, re-shards weights onto the survivors, and resumes; arrivals during recovery are deferred or shed by the bounded admission queue")
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := writeFailoverJSON(cfg, rep); err != nil {
		return err
	}
	return writeFailoverObservability(s, cfg, w)
}

// kindName resolves a RuntimeKind to the name its results report.
func kindName(kind core.RuntimeKind, results []serve.Result, pts []failoverPoint) string {
	for i, pt := range pts {
		if pt.kind == kind {
			return results[i].Runtime
		}
	}
	return fmt.Sprintf("kind(%d)", int(kind))
}

// writeFailoverJSON writes the machine-readable artifact when
// RunConfig.JSONDir is set. encoding/json sorts map keys, so the bytes
// are a pure function of the report value.
func writeFailoverJSON(cfg RunConfig, rep failoverReport) error {
	if cfg.JSONDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.JSONDir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(filepath.Join(cfg.JSONDir, FailoverJSONName), buf, 0o644)
}
