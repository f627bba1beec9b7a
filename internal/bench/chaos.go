package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/runner"
	"liger/internal/serve"
)

// chaosSetup fixes the chaos experiment's shared knobs so the
// experiment driver and its determinism test agree on them.
type chaosSetup struct {
	p         panel
	rate      float64
	profile   faults.Profile
	pol       serve.Policy
	scenarios []faults.Scenario
	kinds     []core.RuntimeKind
}

func newChaosSetup(cfg RunConfig) chaosSetup {
	p := panel{nodeKey: "a100", node: hw.A100Node(), spec: model.OPT30B(), batch: 2, phase: model.Context}
	rate := 0.85 * intraCapacity(p)
	// solo is the analytic duration of one batch on an idle node — the
	// natural unit for deadlines, backoffs, and the collective watchdog.
	solo := time.Duration(float64(time.Second) / intraCapacity(p))
	horizon := time.Duration(float64(cfg.Batches) / rate * float64(time.Second))
	scenarios := append([]faults.Scenario{{
		Name:        "none",
		Description: "fault-free baseline",
		Build:       func(faults.Profile) faults.Schedule { return faults.Schedule{} },
	}}, faults.Scenarios()...)
	return chaosSetup{
		p:    p,
		rate: rate,
		profile: faults.Profile{
			NumDevices: p.node.NumGPUs,
			Horizon:    horizon,
			// Several times the solo batch duration: merely-slow collectives
			// never trip the watchdog, hung ones always do.
			CollTimeout: 4 * solo,
			Seed:        cfg.Seed,
		},
		pol: serve.Policy{
			Deadline:   10 * solo,
			MaxRetries: 3,
			Backoff:    solo / 2,
			BackoffCap: 4 * solo,
		},
		scenarios: scenarios,
		kinds:     []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp},
	}
}

// runChaosPoint serves one (scenario, runtime) point under the chaos
// policy. The Liger runtime serves with degradation-aware re-planning
// enabled — the subsystem under test.
func runChaosPoint(s chaosSetup, sc faults.Scenario, kind core.RuntimeKind, cfg RunConfig) (serve.Result, error) {
	opts := core.Options{Node: s.p.node, Model: s.p.spec, Runtime: kind}
	if kind == core.KindLiger {
		lc := liger.DefaultConfig(s.p.node.Name)
		lc.DegradationAware = true
		opts.Liger = lc
		opts.LigerSet = true
	}
	sched := sc.Build(s.profile)
	if !sched.Empty() {
		opts.Faults = &sched
	}
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

// RunChaos is the robustness extension's headline experiment: every
// runtime serves the same trace under each deterministic fault scenario
// with a deadline/retry policy, and we report goodput (within-deadline
// throughput), tail latency, retries, outright failures, and SLO-miss
// rate. Liger serves with degradation-aware re-planning on, so the
// scheduler backs off interleaving while a device is degraded.
func RunChaos(cfg RunConfig, w io.Writer) error {
	s := newChaosSetup(cfg)
	results, err := runner.Map(cfg.Parallel, len(s.scenarios)*len(s.kinds), func(i int) (serve.Result, error) {
		return runChaosPoint(s, s.scenarios[i/len(s.kinds)], s.kinds[i%len(s.kinds)], cfg)
	})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\truntime\tgoodput\tp99 lat\tretries\tfailed\tSLO-miss")
	for si, sc := range s.scenarios {
		for ki, kind := range s.kinds {
			res := results[si*len(s.kinds)+ki]
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%d\t%d\t%.1f%%\n",
				sc.Name, kind, res.PolicyGoodput(), fmtDur(res.P99),
				res.Retries, res.Failed, 100*res.SLOMissRate())
		}
	}
	fmt.Fprintf(tw, "\npolicy: deadline %s, %d retries, backoff %s (cap %s); collective watchdog %s; seed %d\n",
		fmtDur(s.pol.Deadline), s.pol.MaxRetries, fmtDur(s.pol.Backoff), fmtDur(s.pol.BackoffCap),
		fmtDur(s.profile.CollTimeout), cfg.Seed)
	fmt.Fprintln(tw, "extension: stall/drop scenarios surface as aborted collectives that the serving layer retries; degradation-aware re-planning sheds interleaving only while a device is effectively unusable and rides out uniform slowdowns by design")
	return tw.Flush()
}
