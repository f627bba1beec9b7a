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

// FleetJSONName is the machine-readable artifact of the fleet-failover
// sweep (written into RunConfig.JSONDir when set).
const FleetJSONName = "BENCH_fleet.json"

// fleetSetup fixes the fleet experiment's sweep so the experiment
// driver, its determinism test, and the CI smoke agree.
type fleetSetup struct {
	replicas []int
	instants []float64
	// capacity is one node's intra-op saturated throughput; a fleet of
	// R replicas serves rate(R) = utilization * R * capacity.
	capacity    float64
	utilization float64
}

func newFleetSetup(cfg RunConfig) fleetSetup {
	// Same testbed as the single-node failover sweep — OPT-30B on the
	// 4xA100 node — replicated across an InfiniBand fabric. Losing a
	// whole node removes 1/R of fleet capacity. 60% utilization is
	// chosen so the doubled load on a 2-replica survivor lands between
	// the runtimes' capacities: under Liger's interleaved throughput,
	// beyond intra-op's — the sweep separates them instead of drowning
	// everyone.
	replicas := []int{2, 3}
	instants := []float64{0.3, 0.6}
	if cfg.Quick {
		replicas = []int{2}
		instants = []float64{0.45}
	}
	return fleetSetup{
		replicas:    replicas,
		instants:    instants,
		capacity:    intraCapacity(a100Panel()),
		utilization: 0.6,
	}
}

// fleetPoint identifies one simulation of the sweep: a fleet of
// replicas nodes (plus one spare) serving with kind, losing node 0 at
// atFrac of the horizon (atFrac < 0 is the loss-free baseline).
type fleetPoint struct {
	kind     core.RuntimeKind
	replicas int
	atFrac   float64
}

func (s fleetSetup) points() []fleetPoint {
	var pts []fleetPoint
	for _, r := range s.replicas {
		for _, kind := range headlineKinds {
			pts = append(pts, fleetPoint{kind: kind, replicas: r, atFrac: -1})
		}
	}
	for _, r := range s.replicas {
		for _, at := range s.instants {
			for _, kind := range headlineKinds {
				pts = append(pts, fleetPoint{kind: kind, replicas: r, atFrac: at})
			}
		}
	}
	return pts
}

// scenario is one point's serving run: replicas + 1 spare behind the
// health-aware router on the default InfiniBand fabric, whole-node loss
// injected at the instant. The rate is absolute, utilization x replicas
// x one node's capacity, the sweep's own arithmetic.
func (s fleetSetup) scenario(pt fleetPoint, cfg RunConfig) *scenario.Scenario {
	sc := a100Panel().scenario(scenario.AbsRate(s.utilization*float64(pt.replicas)*s.capacity), cfg)
	sc.Name = fmt.Sprintf("a100-x%d", pt.replicas)
	sc.Cluster = &scenario.ClusterSpec{Nodes: pt.replicas, Spares: 1}
	sc.Policy = scenario.PolicySpec{
		// Interactive-serving SLO: two solo batch durations. Tight on
		// purpose — inter-op pipelining has the raw throughput to absorb
		// a node loss, but its per-batch latency (~1.5x intra) blows this
		// deadline, which is exactly the regime where interleaving wins.
		Deadline:   scenario.SoloTime(2),
		Retries:    3,
		Backoff:    scenario.SoloTime(0.5),
		BackoffCap: scenario.SoloTime(4),
		// Bounded admission fleet-wide: the post-loss backlog sheds past
		// 24 unresolved batches instead of compounding into retries.
		QueueLimit: 24,
	}
	if pt.atFrac >= 0 {
		sc.Chaos.Events = []scenario.ChaosEvent{{Kind: "node-fail", Start: scenario.FracTime(pt.atFrac)}}
	}
	return sc
}

// fleetRow is one JSON record of the sweep.
type fleetRow struct {
	Runtime  string  `json:"runtime"`
	Replicas int     `json:"replicas"`
	AtFrac   float64 `json:"at_frac"`
	// Goodput is within-deadline throughput (batches/s); GoodputRetained
	// is its ratio to the same (runtime, replicas) loss-free baseline.
	Goodput         float64 `json:"goodput"`
	GoodputRetained float64 `json:"goodput_retained"`
	// RecoveryMs is node-loss instant to replica re-placement on the
	// spare (weight transfer over the fabric plus communicator rebuild).
	RecoveryMs float64 `json:"recovery_ms"`
	Failovers  int     `json:"failovers"`
	Shed       int     `json:"shed"`
	Retries    int     `json:"retries"`
	Failed     int     `json:"failed"`
	Completed  int     `json:"completed"`
}

// fleetReport is the full artifact: per-point rows plus the headline
// aggregates the experiment exists to measure.
type fleetReport struct {
	Batches  int        `json:"batches"`
	Seed     int64      `json:"seed"`
	Rows     []fleetRow `json:"rows"`
	Headline struct {
		// Mean goodput retained across every node-loss point, per runtime.
		GoodputRetained map[string]float64 `json:"goodput_retained"`
		// Mean time-to-recover across every node-loss point, per runtime.
		RecoveryMs map[string]float64 `json:"recovery_ms"`
		// LigerVsIntraRetained is Liger's mean retained goodput minus
		// Intra-Op's: positive means interleaving keeps more of the fleet's
		// service alive through the same node loss.
		LigerVsIntraRetained float64 `json:"liger_vs_intra_retained"`
	} `json:"headline"`
}

// buildFleetReport runs the sweep and aggregates it; shared by the
// experiment driver and the pinned tests.
func buildFleetReport(s fleetSetup, cfg RunConfig) (fleetReport, []fleetPoint, []serve.Result, error) {
	pts := s.points()
	results, err := runner.Map(cfg.Parallel, len(pts), func(i int) (serve.Result, error) {
		return serveScenario(s.scenario(pts[i], cfg), pts[i].kind, cfg)
	})
	if err != nil {
		return fleetReport{}, nil, nil, err
	}
	// Loss-free baselines anchor the goodput-retained ratios per
	// (runtime, replicas) pair.
	baseline := make(map[fleetPoint]float64)
	for i, pt := range pts {
		if pt.atFrac < 0 {
			baseline[fleetPoint{kind: pt.kind, replicas: pt.replicas, atFrac: -1}] = results[i].PolicyGoodput()
		}
	}
	rep := fleetReport{Batches: cfg.Batches, Seed: cfg.Seed}
	rep.Headline.GoodputRetained = make(map[string]float64)
	rep.Headline.RecoveryMs = make(map[string]float64)
	sumRetained := make(map[core.RuntimeKind]float64)
	sumRecovery := make(map[core.RuntimeKind]float64)
	lossPoints := 0
	for i, pt := range pts {
		res := results[i]
		row := fleetRow{
			Runtime:    res.Runtime,
			Replicas:   pt.replicas,
			AtFrac:     pt.atFrac,
			Goodput:    res.PolicyGoodput(),
			RecoveryMs: float64(res.RecoveryTime) / float64(time.Millisecond),
			Failovers:  res.Failovers,
			Shed:       res.Shed,
			Retries:    res.Retries,
			Failed:     res.Failed,
			Completed:  res.Completed,
		}
		if base := baseline[fleetPoint{kind: pt.kind, replicas: pt.replicas, atFrac: -1}]; base > 0 {
			row.GoodputRetained = row.Goodput / base
		}
		if pt.atFrac >= 0 {
			sumRetained[pt.kind] += row.GoodputRetained
			sumRecovery[pt.kind] += row.RecoveryMs
			if pt.kind == headlineKinds[0] {
				lossPoints++
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	if lossPoints > 0 {
		for _, kind := range headlineKinds {
			name := kind.String()
			rep.Headline.GoodputRetained[name] = sumRetained[kind] / float64(lossPoints)
			rep.Headline.RecoveryMs[name] = sumRecovery[kind] / float64(lossPoints)
		}
		rep.Headline.LigerVsIntraRetained =
			(sumRetained[core.KindLiger] - sumRetained[core.KindIntraOp]) / float64(lossPoints)
	}
	return rep, pts, results, nil
}

// RunFleet is the fleet-failover experiment: replicate the serving
// node R times (plus one spare) behind the health-aware router, kill
// node 0 at several instants, and measure per runtime how much
// within-deadline goodput the fleet retains and how long replica
// re-placement takes. Every point is an independent simulation, so
// the sweep parallelizes and its output — table and JSON artifact —
// is byte-identical at any -parallel or -shards value.
func RunFleet(cfg RunConfig, w io.Writer) error {
	s := newFleetSetup(cfg)
	rep, pts, results, err := buildFleetReport(s, cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "fleet\tloss\truntime\tgoodput\tretained\trecovery\tfailovers\tshed\tretries\tfailed")
	for i, pt := range pts {
		row := rep.Rows[i]
		label := "none"
		if pt.atFrac >= 0 {
			label = fmt.Sprintf("node0@%.0f%%", 100*pt.atFrac)
		}
		fmt.Fprintf(tw, "%dx+1\t%s\t%s\t%.2f\t%.0f%%\t%s\t%d\t%d\t%d\t%d\n",
			pt.replicas, label, row.Runtime, row.Goodput, 100*row.GoodputRetained,
			fmtDur(results[i].RecoveryTime), row.Failovers, row.Shed, row.Retries, row.Failed)
	}
	c, err := compile(s.scenario(pts[0], cfg))
	if err != nil {
		return err
	}
	net, pol := c.Cluster.Network, c.Policy
	fmt.Fprintf(tw, "\nfabric: %s, %.0f GB/s effective, %s one-way; policy: deadline %s, %d retries, queue limit %d; seed %d\n",
		net.Name, net.EffectiveBWGBs(), net.Latency,
		fmtDur(pol.Deadline), pol.MaxRetries, pol.QueueLimit, cfg.Seed)
	if len(rep.Headline.GoodputRetained) > 0 {
		fmt.Fprintf(tw, "headline: mean goodput retained across node losses — Liger %.0f%%, Intra-Op %.0f%%, Inter-Op %.0f%% (Liger−Intra %+.1fpp)\n",
			100*rep.Headline.GoodputRetained["Liger"], 100*rep.Headline.GoodputRetained["Intra-Op"],
			100*rep.Headline.GoodputRetained["Inter-Op"], 100*rep.Headline.LigerVsIntraRetained)
	}
	fmt.Fprintln(tw, "extension: a NodeFail drops the node's shard mid-epoch; the router evicts it, re-dispatches its in-flight batches to the survivors, and re-places the replica onto the spare after the weight transfer + communicator rebuild")
	if err := tw.Flush(); err != nil {
		return err
	}
	return writeJSON(cfg, FleetJSONName, rep)
}
