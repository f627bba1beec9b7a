// Package analyze turns a trace.Recorder's raw events — kernel spans,
// the causal dependency records of gpusim's Tracer.KernelDep, rendezvous
// waits and recovery windows — into explanations: the critical path of
// a run decomposed into compute / comm / launch-overhead / rendezvous
// / dependency-wait segments, an attribution of every device-idle
// interval to its cause, and an overlap-efficiency report measuring
// how much communication a runtime hides under computation (the
// quantity Liger's interleaving optimizes, Fig. 9/10).
//
// Every product is deterministic: the same recorder contents produce
// byte-identical reports, so CI can diff analysis artifacts across
// worker counts and runs.
package analyze

import (
	"liger/internal/simclock"
	"liger/internal/trace"
)

// Collective routing modes for the critical-path walk. All members of
// a collective finish together, so the walk must pick one member to
// continue through.
const (
	// RouteEarliest walks through the first member to arrive at the
	// rendezvous. Its wait for the late peers surfaces as a rendezvous
	// segment — the launch-lag pathology of §2.3.1 made visible.
	RouteEarliest = "earliest"
	// RouteBinding walks through the last member to arrive — the one
	// that actually gated the transfer. No rendezvous segment appears
	// (the binding member never waits); the path instead continues into
	// whatever made that member late.
	RouteBinding = "binding"
)

// Options configures the analysis.
type Options struct {
	// Routing selects the collective routing mode (default
	// RouteEarliest).
	Routing string
}

// Analyze runs the full analysis over a recorder's events. The
// recorder is read, never mutated.
func Analyze(rec *trace.Recorder, opts Options) *Report {
	if opts.Routing == "" {
		opts.Routing = RouteEarliest
	}
	makespan := simclock.Time(0)
	for _, sp := range rec.Spans() {
		if sp.End > makespan {
			makespan = sp.End
		}
	}
	return &Report{
		Makespan:     makespan,
		CriticalPath: criticalPath(rec, makespan, opts),
		Gaps:         attributeGaps(rec, makespan),
		Overlap:      overlapReport(rec),
	}
}

// recoveryIvs returns the normalized failover reconfiguration windows;
// a window still open at the end of the run extends to the makespan.
func recoveryIvs(rec *trace.Recorder, makespan simclock.Time) []trace.Interval {
	var ivs []trace.Interval
	for _, rw := range rec.RecoveryWindows() {
		end := rw.End
		if end < rw.Start {
			end = makespan
		}
		ivs = append(ivs, trace.Interval{Start: rw.Start, End: end})
	}
	return trace.Union(ivs)
}
