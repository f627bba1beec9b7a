package analyze

import (
	"sort"

	"liger/internal/gpusim"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// DeviceOverlap measures one device's communication exposure. Comm
// occupancy counts transfer execution only: a member spinning on late
// peers is a stall, not communication, and hiding a spin under
// compute hides nothing — so rendezvous waits are reported separately
// as Stall and attributed by the gap report, never as hidden comm.
type DeviceOverlap struct {
	Device  int
	Compute simclock.Time // union of compute-kernel execution
	Comm    simclock.Time // union of comm-kernel (transfer) execution
	Hidden  simclock.Time // comm occupancy overlapped by compute
	Exposed simclock.Time // comm occupancy with no compute running
	Stall   simclock.Time // union of rendezvous wait time (§2.3.1 launch lag)
}

// OverlapReport generalizes Recorder.OverlapTime: per device and in
// total, how much communication ran hidden under computation versus
// exposed on the critical timeline. ExposedShare = Exposed / Comm is
// the ranking metric of the runtime comparison — Liger's interleaving
// exists to push it down (Fig. 9/10).
type OverlapReport struct {
	Devices      []DeviceOverlap
	Compute      simclock.Time
	Comm         simclock.Time
	Hidden       simclock.Time
	Exposed      simclock.Time
	Stall        simclock.Time
	ExposedShare float64
}

func overlapReport(rec *trace.Recorder) OverlapReport {
	compute := map[int][]trace.Interval{}
	comm := map[int][]trace.Interval{}
	stall := map[int][]trace.Interval{}
	devices := 0
	note := func(d int) {
		if d >= devices {
			devices = d + 1
		}
	}
	for _, sp := range rec.Spans() {
		note(sp.Device)
		if sp.Class == gpusim.Comm {
			comm[sp.Device] = append(comm[sp.Device], sp.Interval())
		} else {
			compute[sp.Device] = append(compute[sp.Device], sp.Interval())
		}
	}
	for _, w := range rec.Waits() {
		note(w.Device)
		stall[w.Device] = append(stall[w.Device], w.Interval())
	}
	var or OverlapReport
	for dev := 0; dev < devices; dev++ {
		cp := trace.Union(compute[dev])
		cm := trace.Union(comm[dev])
		d := DeviceOverlap{
			Device:  dev,
			Compute: trace.Total(cp),
			Comm:    trace.Total(cm),
			Hidden:  trace.Total(trace.Intersect(cm, cp)),
			Stall:   trace.Total(trace.Union(stall[dev])),
		}
		d.Exposed = d.Comm - d.Hidden
		or.Devices = append(or.Devices, d)
		or.Compute += d.Compute
		or.Comm += d.Comm
		or.Hidden += d.Hidden
		or.Exposed += d.Exposed
		or.Stall += d.Stall
	}
	sort.Slice(or.Devices, func(i, j int) bool { return or.Devices[i].Device < or.Devices[j].Device })
	if or.Comm > 0 {
		or.ExposedShare = float64(or.Exposed) / float64(or.Comm)
	}
	return or
}
