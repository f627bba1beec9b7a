package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"liger/internal/simclock"
)

// Report bundles the three analysis products. It serializes
// byte-deterministically: struct field order is fixed, maps marshal
// with sorted keys, and every slice is sorted on a full key.
type Report struct {
	Makespan     simclock.Time
	CriticalPath CriticalPath
	Gaps         GapReport
	Overlap      OverlapReport
}

// WriteJSON writes the report as indented JSON. Identical recorder
// contents produce identical bytes, which CI relies on to diff
// analysis artifacts across parallel worker counts.
func (r *Report) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// writeJSON writes v as indented JSON with a trailing newline.
func writeJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// segKinds fixes the presentation order of critical-path totals.
var segKinds = []string{SegCompute, SegComm, SegLaunch, SegRendezvous, SegDepWait, SegRecovery}

// gapCauses fixes the presentation order of the gap table columns.
var gapCauses = []string{GapLaunch, GapDependency, GapRendezvous, GapRecovery, GapFailed, GapNoWork}

// WriteText renders the human-readable explanation ligersim -explain
// prints: the critical-path decomposition with its top contributors,
// the per-device idle-gap table and the overlap-efficiency summary.
func (r *Report) WriteText(w io.Writer, topN int) error {
	if topN <= 0 {
		topN = 10
	}
	pct := func(t simclock.Time) float64 {
		if r.Makespan == 0 {
			return 0
		}
		return 100 * float64(t) / float64(r.Makespan)
	}
	fmt.Fprintf(w, "makespan: %v\n\n", r.Makespan)

	fmt.Fprintf(w, "critical path (%d segments):\n", len(r.CriticalPath.Segments))
	for _, kind := range segKinds {
		t := r.CriticalPath.Totals[kind]
		if t == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %12v %6.1f%%\n", kind, t, pct(t))
	}
	fmt.Fprintf(w, "\ntop critical-path contributors:\n")
	n := topN
	if n > len(r.CriticalPath.Contributors) {
		n = len(r.CriticalPath.Contributors)
	}
	for i := 0; i < n; i++ {
		c := r.CriticalPath.Contributors[i]
		fmt.Fprintf(w, "  %2d. %-24s %-12s %12v  ×%d\n", i+1, c.Kernel, c.Kind, c.Time, c.Count)
	}

	fmt.Fprintf(w, "\nidle-gap attribution (per device):\n")
	fmt.Fprintf(w, "  %-6s", "device")
	for _, cause := range gapCauses {
		fmt.Fprintf(w, " %13s", cause)
	}
	fmt.Fprintln(w)
	perDev := map[int]map[string]simclock.Time{}
	var devs []int
	for _, g := range r.Gaps.Gaps {
		m := perDev[g.Device]
		if m == nil {
			m = map[string]simclock.Time{}
			perDev[g.Device] = m
			devs = append(devs, g.Device)
		}
		m[g.Cause] += g.End - g.Start
	}
	sort.Ints(devs)
	for _, d := range devs {
		fmt.Fprintf(w, "  gpu%-3d", d)
		for _, cause := range gapCauses {
			fmt.Fprintf(w, " %13v", perDev[d][cause])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  total idle: %v\n", r.Gaps.Idle)

	fmt.Fprintf(w, "\noverlap efficiency:\n")
	for _, d := range r.Overlap.Devices {
		share := 0.0
		if d.Comm > 0 {
			share = 100 * float64(d.Exposed) / float64(d.Comm)
		}
		fmt.Fprintf(w, "  gpu%-3d comm %12v  hidden %12v  exposed %12v (%5.1f%%)  stall %12v\n",
			d.Device, d.Comm, d.Hidden, d.Exposed, share, d.Stall)
	}
	_, err := fmt.Fprintf(w, "  total  comm %12v  hidden %12v  exposed %12v (%5.1f%% exposed)  stall %12v\n",
		r.Overlap.Comm, r.Overlap.Hidden, r.Overlap.Exposed, 100*r.Overlap.ExposedShare, r.Overlap.Stall)
	return err
}
