package analyze

import (
	"sort"

	"liger/internal/gpusim"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// Segment kinds of the critical path.
const (
	// SegCompute / SegComm are kernel executions on the path.
	SegCompute = "compute"
	SegComm    = "comm"
	// SegLaunch is host→device launch overhead: the base delivery
	// latency plus any launch-queue serialization behind earlier
	// launches on the same connection.
	SegLaunch = "launch"
	// SegRendezvous is a collective member spinning on late peers
	// (holding SMs) before the group transfer starts.
	SegRendezvous = "rendezvous"
	// SegDepWait is host-side time between kernels: the scheduler
	// deciding, synchronizing or assembling the next launch.
	SegDepWait = "dep-wait"
	// SegRecovery is host-side time inside a failover reconfiguration
	// window.
	SegRecovery = "recovery"
)

// Segment is one piece of the critical path. Segments tile the run
// exactly: ascending, contiguous, from 0 to the makespan, so their
// durations sum to the end-to-end time.
type Segment struct {
	Kind   string
	Start  simclock.Time
	End    simclock.Time
	Device int    // -1 for host-side segments
	Kernel string // contributing kernel name; "" for host-side segments
	ID     int    // kernel id; -1 for host-side segments
}

// Contributor aggregates the path time one kernel name accounts for in
// one segment kind.
type Contributor struct {
	Kernel string
	Kind   string
	Time   simclock.Time
	Count  int
}

// CriticalPath is the longest dependency chain of the run, walked
// backward from the last-finishing kernel through the recorded
// dependency edges (program order, event waits, SM capacity, launch
// queues, collective membership).
type CriticalPath struct {
	Segments     []Segment
	Totals       map[string]simclock.Time
	Contributors []Contributor
}

func criticalPath(rec *trace.Recorder, makespan simclock.Time, opts Options) CriticalPath {
	cp := CriticalPath{Totals: map[string]simclock.Time{}}
	if makespan == 0 {
		return cp
	}
	spanByID := map[int]trace.Span{}
	var ends []trace.Span // id-carrying spans, sorted by (End, Device, ID)
	for _, sp := range rec.Spans() {
		if sp.ID >= 0 {
			spanByID[sp.ID] = sp
			ends = append(ends, sp)
		}
	}
	depByID := map[int]trace.Dep{}
	collMembers := map[int][]trace.Dep{}
	for _, d := range rec.Deps() {
		depByID[d.ID] = d
		if d.Coll >= 0 {
			collMembers[d.Coll] = append(collMembers[d.Coll], d)
		}
	}
	sort.SliceStable(ends, func(i, j int) bool {
		if ends[i].End != ends[j].End {
			return ends[i].End < ends[j].End
		}
		if ends[i].Device != ends[j].Device {
			return ends[i].Device < ends[j].Device
		}
		return ends[i].ID < ends[j].ID
	})
	recovery := recoveryIvs(rec, makespan)

	var segs []Segment // built in reverse time order, reversed at the end
	emit := func(kind string, s, e simclock.Time, dev int, kernel string, id int) {
		if e > s {
			segs = append(segs, Segment{Kind: kind, Start: s, End: e,
				Device: dev, Kernel: kernel, ID: id})
		}
	}
	// bridge fills a host-side gap [lo, hi): recovery-window time is
	// attributed to the failover, the rest to host dependency logic.
	bridge := func(lo, hi simclock.Time) {
		if hi <= lo {
			return
		}
		whole := []trace.Interval{{Start: lo, End: hi}}
		type piece struct {
			v    trace.Interval
			kind string
		}
		var ps []piece
		for _, v := range trace.Intersect(whole, recovery) {
			ps = append(ps, piece{v, SegRecovery})
		}
		for _, v := range trace.Subtract(whole, recovery) {
			ps = append(ps, piece{v, SegDepWait})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].v.Start > ps[j].v.Start })
		for _, p := range ps {
			emit(p.kind, p.v.Start, p.v.End, -1, "", -1)
		}
	}

	visited := map[int]bool{}
	// hostBridge jumps to the latest unvisited span ending at or before
	// T, bridging the gap in between; ok is false when none remains.
	hostBridge := func(T simclock.Time) (trace.Span, simclock.Time, bool) {
		i := len(ends) - 1
		for i >= 0 && (ends[i].End > T || visited[ends[i].ID]) {
			i--
		}
		if i < 0 {
			return trace.Span{}, T, false
		}
		best := ends[i]
		for j := i - 1; j >= 0 && ends[j].End == best.End; j-- {
			if !visited[ends[j].ID] {
				best = ends[j] // ties resolve to the lowest (device, id)
			}
		}
		bridge(best.End, T)
		return best, best.End, true
	}

	if len(ends) == 0 {
		// Only legacy id-less spans: nothing to walk, but the report
		// still tiles the run.
		bridge(0, makespan)
	} else {
		// Start from the last-finishing span (ties: lowest device, id).
		cur := ends[len(ends)-1]
		for i := len(ends) - 2; i >= 0 && ends[i].End == cur.End; i-- {
			cur = ends[i]
		}
		T := cur.End
		ok := true
		for iter := 0; ok && T > 0 && iter <= len(ends)+1; iter++ {
			visited[cur.ID] = true
			d, hasDep := depByID[cur.ID]
			// Collective: all members end together; continue through the
			// member the routing mode selects.
			if cur.Coll >= 0 && hasDep {
				if m, found := routeMember(collMembers[cur.Coll], opts.Routing); found {
					if ms, has := spanByID[m.ID]; has && !visited[m.ID] && ms.End == T {
						cur, d = ms, m
						visited[m.ID] = true
					}
				}
			}
			kind := SegCompute
			if cur.Class == gpusim.Comm {
				kind = SegComm
			}
			if cur.Start < T {
				emit(kind, cur.Start, T, cur.Device, cur.Name, cur.ID)
				T = cur.Start
			}
			if !hasDep {
				// Cancelled before admission (zero-length truncated span):
				// no causal record to follow, bridge through the host.
				cur, T, ok = hostBridge(T)
				continue
			}
			if d.Admitted < T {
				// The member held its device from admission to the group's
				// transfer start, spinning on its peers.
				emit(SegRendezvous, d.Admitted, T, cur.Device, cur.Name, cur.ID)
				T = d.Admitted
			}
			// Backward from the admission instant: what released it?
			hop := -1
			if d.Admitted > d.HeadAt && d.AdmitPred >= 0 {
				hop = d.AdmitPred // blocked on SM capacity until this finish
			} else if d.HeadPred >= 0 &&
				(d.HeadCause == gpusim.CauseStream || d.HeadCause == gpusim.CauseEvent) {
				hop = d.HeadPred // released by a predecessor's completion
			}
			if hop >= 0 {
				if sp, has := spanByID[hop]; has && !visited[hop] && sp.End <= T {
					bridge(sp.End, T)
					cur, T = sp, sp.End
					continue
				}
				// Unusable hop (predecessor cancelled or revisited): fall
				// through to the launch/host path so the tiling never breaks.
			}
			// The kernel's own launch put it at the head: charge the
			// delivery (base latency + queue serialization) to launch
			// overhead and continue from the issue instant on the host.
			lo := d.Issued
			if lo > T {
				lo = T
			}
			if lo < T {
				emit(SegLaunch, lo, T, cur.Device, cur.Name, cur.ID)
				T = lo
			}
			cur, T, ok = hostBridge(T)
		}
		// Leading host time before the first issue on the path.
		bridge(0, T)
	}

	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	cp.Segments = segs
	type key struct{ kernel, kind string }
	agg := map[key]*Contributor{}
	var order []key
	for _, s := range segs {
		cp.Totals[s.Kind] += s.End - s.Start
		name := s.Kernel
		if name == "" {
			name = "(host)"
		}
		k := key{name, s.Kind}
		c := agg[k]
		if c == nil {
			c = &Contributor{Kernel: name, Kind: s.Kind}
			agg[k] = c
			order = append(order, k)
		}
		c.Time += s.End - s.Start
		c.Count++
	}
	for _, k := range order {
		cp.Contributors = append(cp.Contributors, *agg[k])
	}
	sort.SliceStable(cp.Contributors, func(i, j int) bool {
		a, b := cp.Contributors[i], cp.Contributors[j]
		if a.Time != b.Time {
			return a.Time > b.Time
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.Kind < b.Kind
	})
	return cp
}

// routeMember picks the collective member the walk continues through.
func routeMember(members []trace.Dep, routing string) (trace.Dep, bool) {
	if len(members) == 0 {
		return trace.Dep{}, false
	}
	best := members[0]
	for _, m := range members[1:] {
		switch routing {
		case RouteBinding:
			if m.Admitted > best.Admitted ||
				(m.Admitted == best.Admitted && m.ID < best.ID) {
				best = m
			}
		default: // RouteEarliest
			if m.Admitted < best.Admitted ||
				(m.Admitted == best.Admitted && m.ID < best.ID) {
				best = m
			}
		}
	}
	return best, true
}
