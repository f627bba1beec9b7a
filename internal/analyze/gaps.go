package analyze

import (
	"sort"

	"liger/internal/simclock"
	"liger/internal/trace"
)

// Gap causes, in attribution priority order: an idle instant matching
// several layers is charged to the first.
const (
	// GapFailed: the device was permanently removed; everything after
	// the failure instant is lost capacity, not schedulable idleness.
	GapFailed = "device-failed"
	// GapRecovery: inside a failover reconfiguration window — serving
	// was paused while the runtime re-planned onto the survivors.
	GapRecovery = "recovery"
	// GapRendezvous: a collective member occupied the device spinning
	// on late peers (no useful progress).
	GapRendezvous = "rendezvous"
	// GapDependency: work was delivered but not yet admitted — head of
	// queue blocked on a predecessor, an event or SM capacity.
	GapDependency = "dependency"
	// GapLaunch: work was issued but still in the host→device launch
	// queue (base latency or serialization behind earlier launches).
	GapLaunch = "launch"
	// GapNoWork: nothing was issued for the device — the scheduler had
	// no work for it.
	GapNoWork = "no-work"
)

// Gap is one attributed device-idle interval.
type Gap struct {
	Device int
	Start  simclock.Time
	End    simclock.Time
	Cause  string
}

// GapReport attributes every device-idle interval of the run (the
// complement of kernel execution within [0, makespan]) to a cause.
type GapReport struct {
	Gaps []Gap
	// Totals sums gap time per cause across devices; Idle is the grand
	// total (equal to devices×makespan minus execution time).
	Totals map[string]simclock.Time
	Idle   simclock.Time
}

func attributeGaps(rec *trace.Recorder, makespan simclock.Time) GapReport {
	gr := GapReport{Totals: map[string]simclock.Time{}}
	if makespan == 0 {
		return gr
	}
	devices := 0
	note := func(d int) {
		if d >= devices {
			devices = d + 1
		}
	}
	busy := map[int][]trace.Interval{}
	for _, sp := range rec.Spans() {
		note(sp.Device)
		busy[sp.Device] = append(busy[sp.Device], sp.Interval())
	}
	waits := map[int][]trace.Interval{}
	for _, w := range rec.Waits() {
		note(w.Device)
		waits[w.Device] = append(waits[w.Device], w.Interval())
	}
	delivered := map[int][]trace.Interval{} // delivered, not yet admitted
	inQueue := map[int][]trace.Interval{}   // issued, not yet delivered
	for _, d := range rec.Deps() {
		note(d.Device)
		delivered[d.Device] = append(delivered[d.Device], trace.Interval{Start: d.Delivered, End: d.Admitted})
		inQueue[d.Device] = append(inQueue[d.Device], trace.Interval{Start: d.Issued, End: d.Delivered})
	}
	failedAt := map[int]simclock.Time{}
	for _, f := range rec.Fails() {
		note(f.Device)
		if at, ok := failedAt[f.Device]; !ok || f.At < at {
			failedAt[f.Device] = f.At
		}
	}
	recovery := recoveryIvs(rec, makespan)

	for dev := 0; dev < devices; dev++ {
		remaining := trace.Subtract([]trace.Interval{{End: makespan}}, trace.Union(busy[dev]))
		gr.Idle += trace.Total(remaining)
		layers := []struct {
			cause string
			ivs   []trace.Interval
		}{
			{GapFailed, failedLayer(failedAt, dev, makespan)},
			{GapRecovery, recovery},
			{GapRendezvous, trace.Union(waits[dev])},
			{GapDependency, trace.Union(delivered[dev])},
			{GapLaunch, trace.Union(inQueue[dev])},
		}
		for _, layer := range layers {
			for _, v := range trace.Intersect(remaining, layer.ivs) {
				gr.Gaps = append(gr.Gaps, Gap{Device: dev, Start: v.Start, End: v.End, Cause: layer.cause})
			}
			remaining = trace.Subtract(remaining, layer.ivs)
		}
		for _, v := range remaining {
			gr.Gaps = append(gr.Gaps, Gap{Device: dev, Start: v.Start, End: v.End, Cause: GapNoWork})
		}
	}
	sort.Slice(gr.Gaps, func(i, j int) bool {
		if gr.Gaps[i].Device != gr.Gaps[j].Device {
			return gr.Gaps[i].Device < gr.Gaps[j].Device
		}
		return gr.Gaps[i].Start < gr.Gaps[j].Start
	})
	for _, g := range gr.Gaps {
		gr.Totals[g.Cause] += g.End - g.Start
	}
	return gr
}

func failedLayer(failedAt map[int]simclock.Time, dev int, makespan simclock.Time) []trace.Interval {
	at, ok := failedAt[dev]
	if !ok {
		return nil
	}
	return trace.Union([]trace.Interval{{Start: at, End: makespan}})
}

// GapGlyphs maps gap causes to the single-character glyphs the ASCII
// timeline's annotation lane uses.
var GapGlyphs = map[string]byte{
	GapFailed:     'X',
	GapRecovery:   'R',
	GapRendezvous: 'r',
	GapDependency: 'd',
	GapLaunch:     'l',
	GapNoWork:     '.',
}

// GapMarks converts the attributed gaps into timeline annotations.
func (gr GapReport) GapMarks() []trace.GapMark {
	marks := make([]trace.GapMark, 0, len(gr.Gaps))
	for _, g := range gr.Gaps {
		glyph := GapGlyphs[g.Cause]
		if glyph == 0 {
			glyph = '?'
		}
		marks = append(marks, trace.GapMark{Device: g.Device, Start: g.Start, End: g.End, Glyph: glyph})
	}
	return marks
}
