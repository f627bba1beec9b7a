// Package tune finds the operating envelope of a deployment — the
// paper's Appendix D notes that "since nodes vary in computation and
// communication ability, it is necessary to specify the arrival rate
// for your node and there exists an arrival rate range where Liger
// performs better than both intra- and inter-operator parallelism
// approaches". This package measures that range by simulation: it
// locates each runtime's saturation throughput and sweeps the rate axis
// for the window where Liger wins on both latency and throughput.
package tune

import (
	"fmt"
	"time"

	"liger/internal/core"
	"liger/internal/scenario"
)

// Config bounds the search.
type Config struct {
	// Scenario is the compiled single-node batch scenario every probe
	// serves: node, model, trace shape, batches per probe and seed.
	// Each probe replaces only its arrival rate.
	Scenario *scenario.Compiled
	// Points is the resolution of the rate sweep (at least 3).
	Points int
}

// Probe is one measured operating point.
type Probe struct {
	Rate       float64
	Latency    time.Duration
	Throughput float64
}

// Report is the tuner's output.
type Report struct {
	// Saturation throughput per runtime (batches/s).
	LigerSat, IntraSat, InterSat float64
	// AdvantageLo/Hi bound the arrival-rate window in which Liger's
	// average latency beats both baselines while sustaining the offered
	// rate. Zero window means no measured advantage region.
	AdvantageLo, AdvantageHi float64
	// Sweep holds the probe points per runtime.
	Sweep map[core.RuntimeKind][]Probe
}

// HasWindow reports whether an advantage window was found.
func (r Report) HasWindow() bool { return r.AdvantageHi > r.AdvantageLo }

// String renders a one-paragraph summary.
func (r Report) String() string {
	s := fmt.Sprintf("saturation: Liger %.2f, Intra-Op %.2f, Inter-Op %.2f batches/s",
		r.LigerSat, r.IntraSat, r.InterSat)
	if r.HasWindow() {
		s += fmt.Sprintf("; Liger advantage window: %.2f–%.2f batches/s", r.AdvantageLo, r.AdvantageHi)
	} else {
		s += "; no strict advantage window found"
	}
	return s
}

// measure serves one probe point: the scenario at rate on one runtime.
func measure(c *scenario.Compiled, kind core.RuntimeKind, rate float64) (Probe, error) {
	at, err := c.AtRate(rate)
	if err != nil {
		return Probe{}, err
	}
	out, err := scenario.RunOne(at, kind, scenario.RunOptions{})
	if err != nil {
		return Probe{}, err
	}
	return Probe{Rate: rate, Latency: out.Result.AvgLatency, Throughput: out.Result.ThroughputBatches()}, nil
}

// Run executes the search.
func Run(cfg Config) (Report, error) {
	c := cfg.Scenario
	if c.Cluster != nil || c.Continuous != nil {
		return Report{}, fmt.Errorf("tune: scenario %q is not a single-node batch scenario", c.Scenario.Name)
	}
	points := max(cfg.Points, 3)
	rep := Report{Sweep: map[core.RuntimeKind][]Probe{}}

	// Rough capacity estimate to size the overload probe: serve a burst
	// and take the throughput.
	warm, err := measure(c, core.KindIntraOp, 1e6)
	if err != nil {
		return rep, err
	}
	// Saturation throughput: each runtime's throughput at a rate far
	// beyond capacity.
	overload := 3 * warm.Throughput
	for _, sat := range []struct {
		kind core.RuntimeKind
		dst  *float64
	}{{core.KindIntraOp, &rep.IntraSat}, {core.KindLiger, &rep.LigerSat}, {core.KindInterOp, &rep.InterSat}} {
		p, err := measure(c, sat.kind, overload)
		if err != nil {
			return rep, err
		}
		*sat.dst = p.Throughput
	}

	// Sweep from well below intra saturation to just past Liger's.
	lo := 0.3 * rep.IntraSat
	hi := 1.05 * rep.LigerSat
	kinds := []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp}
	for i := 0; i < points; i++ {
		rate := lo + (hi-lo)*float64(i)/float64(points-1)
		for _, k := range kinds {
			p, err := measure(c, k, rate)
			if err != nil {
				return rep, err
			}
			rep.Sweep[k] = append(rep.Sweep[k], p)
		}
	}

	// The advantage window: rates where Liger keeps up with the offered
	// load (throughput ≥ 97% of rate) and has the lowest average latency
	// of the three runtimes.
	inWindow := func(i int) bool {
		lg := rep.Sweep[core.KindLiger][i]
		if lg.Throughput < 0.97*lg.Rate {
			return false
		}
		for _, k := range kinds[1:] {
			if rep.Sweep[k][i].Latency <= lg.Latency {
				return false
			}
		}
		return true
	}
	for i := 0; i < points; i++ {
		if inWindow(i) {
			if rep.AdvantageLo == 0 {
				rep.AdvantageLo = rep.Sweep[core.KindLiger][i].Rate
			}
			rep.AdvantageHi = rep.Sweep[core.KindLiger][i].Rate
		}
	}
	return rep, nil
}
