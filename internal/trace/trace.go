// Package trace provides the offline preprocessing tools of Liger's
// workflow (Fig. 5): a kernel profiler that measures solo durations by
// running kernels on the simulated node, a concurrent-pair profiler
// that derives the contention factors of §3.5, and a Chrome-trace
// recorder for visualizing interleaved execution.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"liger/internal/gpusim"
	"liger/internal/simclock"
)

// Span is one recorded kernel execution. Req is -1 when the launch was
// not tagged with a request, Coll -1 for a local kernel. Cancelled is
// non-empty when the kernel was truncated by a teardown instead of
// completing (see gpusim.CancelDeviceFail / gpusim.CancelCollectiveAbort).
type Span struct {
	// ID is the node-unique kernel id joining this span against its Dep
	// record.
	ID        int
	Device    int
	Name      string
	Class     gpusim.KernelClass
	Start     simclock.Time
	End       simclock.Time
	Batch     int
	Req       int
	Coll      int
	Cancelled string
}

// WaitSpan is one device's rendezvous wait inside a collective: from
// the member's admission (it holds SMs while spinning on its peers) to
// the instant the group starts its transfer — or aborts.
type WaitSpan struct {
	Device  int
	Coll    int
	Batch   int
	Req     int
	Start   simclock.Time
	End     simclock.Time
	Aborted bool
}

// RateSample is one device's fault-model rate change: Speed scales
// kernel progress, Link scales interconnect throughput.
type RateSample struct {
	Device int
	Speed  float64
	Link   float64
	At     simclock.Time
}

// FailEvent marks a permanent device failure.
type FailEvent struct {
	Device int
	At     simclock.Time
}

// RecoveryWindow is one failover reconfiguration epoch: from the
// runtime observing the failure to serving resuming on the survivors.
type RecoveryWindow struct {
	Start simclock.Time
	End   simclock.Time
}

// Dep is the recorded causal launch history of one kernel, mirroring
// gpusim.KernelDep: when the host issued it, when the launch queue
// delivered it (Serialized > 0 when the connection's issue gap pushed
// it behind ConnPred), when and why it reached the head of its stream
// (HeadCause is one of gpusim.CauseDelivery/CauseStream/CauseEvent,
// HeadPred the enabling kernel id), and when the device admitted it
// (AdmitPred names the kernel whose finish freed the SMs when
// Admitted > HeadAt). Kernels cancelled before admission have no Dep.
type Dep struct {
	ID         int
	Device     int
	Stream     int
	Coll       int
	Issued     simclock.Time
	Delivered  simclock.Time
	Serialized simclock.Time
	ConnPred   int
	HeadAt     simclock.Time
	HeadCause  string
	HeadPred   int
	Admitted   simclock.Time
	AdmitPred  int
}

// QueueSample is one launch-queue depth observation (commands issued
// to a device's streams and not yet retired).
type QueueSample struct {
	Device int
	Depth  int
	At     simclock.Time
}

// EnqueueEvent marks one member launch of a collective.
type EnqueueEvent struct {
	Coll   int
	Size   int
	Device int
	At     simclock.Time
}

// CollectiveCounts aggregates collective lifecycle totals.
type CollectiveCounts struct {
	Enqueued int // member launches
	Started  int // groups whose rendezvous completed
	Finished int // groups that completed their transfer
	Aborted  int // groups torn down by the watchdog or a failure
}

// ReqLatency is the trace-side decomposition of one request's time on
// the devices: union of its compute spans, union of its comm spans
// (rendezvous waits included — that is where the launch-lag pathology
// shows), and the stall gaps in between (first kernel start to last
// kernel end not covered by any of its spans).
type ReqLatency struct {
	Compute   simclock.Time
	Comm      simclock.Time
	Stall     simclock.Time
	Kernels   int
	Cancelled int
}

// Recorder is the one recorder of every layer. As the node's
// gpusim.Tracer (gpusim.Node.SetTracer) it collects kernel spans,
// dependency records and the collective, fault and launch-queue events;
// as serve.ServingTracer and kvcache.Tracer it collects the serving
// streams (serving.go). A run that records one layer leaves the other
// half empty, and WriteChromeTrace renders both halves into one trace.
type Recorder struct {
	spans    []Span
	deps     []Dep
	waits    []WaitSpan
	rates    []RateSample
	fails    []FailEvent
	recovery []RecoveryWindow
	queue    []QueueSample
	enqueues []EnqueueEvent
	counts   CollectiveCounts

	// openWaits holds rendezvous waits per collective until the group
	// starts or aborts; lastQ coalesces same-instant queue samples.
	openWaits map[int][]WaitSpan
	lastQ     map[int]int
	recovOpen bool

	// pool stamps incoming kvcache events (which carry no pool of their
	// own) with the owning decode pool.
	pool       int
	iterations []IterationRecord
	seqEvents  []SeqEvent
	kvEvents   []PoolKVEvent
	decisions  []RouterDecision
	handoffs   []KVHandoff
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{openWaits: make(map[int][]WaitSpan), lastQ: make(map[int]int)}
}

var _ gpusim.Tracer = (*Recorder)(nil)

// KernelSpan implements gpusim.Tracer.
func (r *Recorder) KernelSpan(sp gpusim.KernelSpan) {
	r.spans = append(r.spans, Span{ID: sp.ID, Device: sp.Device, Name: sp.Name,
		Class: sp.Class, Start: sp.Start, End: sp.End, Batch: sp.Batch, Req: sp.Req,
		Coll: sp.Coll, Cancelled: sp.Cancelled})
}

// KernelDep implements gpusim.Tracer, recording the causal launch
// history each admitted kernel carries.
func (r *Recorder) KernelDep(dep gpusim.KernelDep) {
	r.deps = append(r.deps, Dep{
		ID: dep.ID, Device: dep.Device, Stream: dep.Stream, Coll: dep.Coll,
		Issued: dep.Issued, Delivered: dep.Delivered,
		Serialized: dep.Serialized, ConnPred: dep.ConnPred,
		HeadAt: dep.HeadAt, HeadCause: dep.HeadCause, HeadPred: dep.HeadPred,
		Admitted: dep.Admitted, AdmitPred: dep.AdmitPred,
	})
}

// CollectiveEnqueue implements gpusim.Tracer.
func (r *Recorder) CollectiveEnqueue(coll, size, dev int, at simclock.Time) {
	r.enqueues = append(r.enqueues, EnqueueEvent{Coll: coll, Size: size, Device: dev, At: at})
	r.counts.Enqueued++
}

// RendezvousBegin implements gpusim.Tracer: the member now
// occupies its device while spinning on its peers.
func (r *Recorder) RendezvousBegin(coll, dev, batch, req int, at simclock.Time) {
	r.openWaits[coll] = append(r.openWaits[coll],
		WaitSpan{Device: dev, Coll: coll, Batch: batch, Req: req, Start: at})
}

// TransferStart implements gpusim.Tracer: the rendezvous
// completed, closing every member's wait span.
func (r *Recorder) TransferStart(coll int, at simclock.Time) {
	r.closeWaits(coll, at, false)
	r.counts.Started++
}

// CollectiveFinish implements gpusim.Tracer.
func (r *Recorder) CollectiveFinish(int, simclock.Time) { r.counts.Finished++ }

// CollectiveAbort implements gpusim.Tracer: pending waits
// close flagged, since the transfer never happened.
func (r *Recorder) CollectiveAbort(coll int, at simclock.Time) {
	r.closeWaits(coll, at, true)
	r.counts.Aborted++
}

func (r *Recorder) closeWaits(coll int, at simclock.Time, aborted bool) {
	for _, w := range r.openWaits[coll] {
		w.End = at
		w.Aborted = aborted
		r.waits = append(r.waits, w)
	}
	delete(r.openWaits, coll)
}

// RateChange implements gpusim.Tracer.
func (r *Recorder) RateChange(dev int, speed, link float64, at simclock.Time) {
	r.rates = append(r.rates, RateSample{Device: dev, Speed: speed, Link: link, At: at})
}

// DeviceFailed implements gpusim.Tracer.
func (r *Recorder) DeviceFailed(dev int, at simclock.Time) {
	r.fails = append(r.fails, FailEvent{Device: dev, At: at})
}

// RecoveryBegin implements gpusim.Tracer.
func (r *Recorder) RecoveryBegin(at simclock.Time) {
	if r.recovOpen {
		return
	}
	r.recovOpen = true
	r.recovery = append(r.recovery, RecoveryWindow{Start: at, End: -1})
}

// RecoveryEnd implements gpusim.Tracer.
func (r *Recorder) RecoveryEnd(at simclock.Time) {
	if !r.recovOpen {
		return
	}
	r.recovOpen = false
	r.recovery[len(r.recovery)-1].End = at
}

// QueueDepth implements gpusim.Tracer. Same-instant samples for
// one device coalesce to the last value, so a burst of launches leaves
// one data point instead of a staircase of intermediate depths.
func (r *Recorder) QueueDepth(dev, depth int, at simclock.Time) {
	if i, ok := r.lastQ[dev]; ok && r.queue[i].At == at {
		r.queue[i].Depth = depth
		return
	}
	r.queue = append(r.queue, QueueSample{Device: dev, Depth: depth, At: at})
	r.lastQ[dev] = len(r.queue) - 1
}

// Spans returns the recorded spans in completion order.
func (r *Recorder) Spans() []Span { return r.spans }

// Deps returns the recorded dependency records in admission order.
func (r *Recorder) Deps() []Dep { return r.deps }

// Waits returns the closed rendezvous-wait spans in close order.
func (r *Recorder) Waits() []WaitSpan { return r.waits }

// Enqueues returns the collective member launches in launch order.
func (r *Recorder) Enqueues() []EnqueueEvent { return r.enqueues }

// RateSamples returns the fault-model rate changes in event order.
func (r *Recorder) RateSamples() []RateSample { return r.rates }

// Fails returns the permanent device failures in event order.
func (r *Recorder) Fails() []FailEvent { return r.fails }

// RecoveryWindows returns the failover epochs; an epoch still open at
// the end of the run has End == -1.
func (r *Recorder) RecoveryWindows() []RecoveryWindow { return r.recovery }

// QueueSamples returns the coalesced launch-queue depth samples.
func (r *Recorder) QueueSamples() []QueueSample { return r.queue }

// Counts returns the collective lifecycle totals.
func (r *Recorder) Counts() CollectiveCounts { return r.counts }

// Reset drops all recorded events.
func (r *Recorder) Reset() {
	*r = Recorder{openWaits: make(map[int][]WaitSpan), lastQ: make(map[int]int)}
}

// ReqBreakdown decomposes device time per request id: spans and waits
// tagged Req < 0 are ignored. Compute and Comm are interval unions (a
// request's kernels on different devices overlap), Stall is the
// request's first-start→last-end wall time not covered by any of its
// spans or waits.
func (r *Recorder) ReqBreakdown() map[int]ReqLatency {
	type acc struct {
		compute, comm, all []Interval
		kernels, cancelled int
	}
	byReq := make(map[int]*acc)
	get := func(req int) *acc {
		a := byReq[req]
		if a == nil {
			a = &acc{}
			byReq[req] = a
		}
		return a
	}
	for _, s := range r.spans {
		if s.Req < 0 {
			continue
		}
		a := get(s.Req)
		iv := s.Interval()
		a.all = append(a.all, iv)
		if s.Class == gpusim.Comm {
			a.comm = append(a.comm, iv)
		} else {
			a.compute = append(a.compute, iv)
		}
		a.kernels++
		if s.Cancelled != "" {
			a.cancelled++
		}
	}
	for _, w := range r.waits {
		if w.Req < 0 {
			continue
		}
		a := get(w.Req)
		iv := w.Interval()
		a.all = append(a.all, iv)
		a.comm = append(a.comm, iv)
	}
	out := make(map[int]ReqLatency, len(byReq))
	for req, a := range byReq {
		var lo, hi simclock.Time
		for i, iv := range a.all {
			if i == 0 || iv.Start < lo {
				lo = iv.Start
			}
			if iv.End > hi {
				hi = iv.End
			}
		}
		out[req] = ReqLatency{
			Compute:   Total(Union(a.compute)),
			Comm:      Total(Union(a.comm)),
			Stall:     (hi - lo) - Total(Union(a.all)),
			Kernels:   a.kernels,
			Cancelled: a.cancelled,
		}
	}
	return out
}

// chromeEvent is one entry of the Chrome tracing JSON array format
// (chrome://tracing / Perfetto compatible).
type chromeEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`  // microseconds
	Dur   float64 `json:"dur"` // microseconds
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	Scope string  `json:"s,omitempty"`
	// ID links flow-event pairs ("s"/"f" phases — the serving trace's
	// KV-handoff arrows); empty for every other phase.
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Chrome-trace track layout: each device is a process with a compute
// track, a comm track, and a rendezvous-wait track; node-wide events
// (recovery windows) live on a dedicated process.
const (
	tidCompute = 0
	tidComm    = 1
	tidWait    = 2
	// globalPID hosts node-wide (not per-device) events.
	globalPID = 1 << 20
)

func usec(t simclock.Time) float64 { return float64(t) / 1e3 }

// WriteChromeTrace serializes every recorded event as one Chrome
// trace, the node events first and the serving events (servingEvents)
// after them. Devices map to processes; kernel spans land on the
// compute/comm tracks, rendezvous waits on their own track, fault-model
// rates and launch-queue depths become counter tracks, device failures
// instant events, and recovery windows spans on a node-wide process.
// The two halves use disjoint PIDs, so a recorder holding one layer
// writes exactly that layer's trace. Output is byte-deterministic:
// events sort stably by (TS, PID, TID, Name) and args serialize with
// sorted keys.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0,
		2*len(r.spans)+len(r.waits)+len(r.rates)+len(r.queue)+len(r.fails)+len(r.enqueues))
	for _, s := range r.spans {
		tid := tidCompute
		if s.Class == gpusim.Comm {
			tid = tidComm
		}
		var args map[string]any
		if s.Batch >= 0 || s.Req >= 0 || s.Coll >= 0 || s.Cancelled != "" {
			args = map[string]any{}
			if s.Batch >= 0 {
				args["batch"] = s.Batch
			}
			if s.Req >= 0 {
				args["req"] = s.Req
			}
			if s.Coll >= 0 {
				args["coll"] = s.Coll
			}
			if s.Cancelled != "" {
				args["cancelled"] = s.Cancelled
			}
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Class.String(), Phase: "X",
			TS: usec(s.Start), Dur: usec(s.End - s.Start),
			PID: s.Device, TID: tid, Args: args,
		})
	}
	for _, ws := range r.waits {
		args := map[string]any{"coll": ws.Coll}
		if ws.Batch >= 0 {
			args["batch"] = ws.Batch
		}
		if ws.Req >= 0 {
			args["req"] = ws.Req
		}
		if ws.Aborted {
			args["aborted"] = true
		}
		events = append(events, chromeEvent{
			Name: "rendezvous-wait", Cat: "wait", Phase: "X",
			TS: usec(ws.Start), Dur: usec(ws.End - ws.Start),
			PID: ws.Device, TID: tidWait, Args: args,
		})
	}
	for _, e := range r.enqueues {
		events = append(events, chromeEvent{
			Name: "coll-enqueue", Cat: "collective", Phase: "i",
			TS: usec(e.At), PID: e.Device, TID: tidComm, Scope: "t",
			Args: map[string]any{"coll": e.Coll, "size": e.Size},
		})
	}
	for _, rs := range r.rates {
		events = append(events, chromeEvent{
			Name: "rate", Cat: "fault", Phase: "C",
			TS: usec(rs.At), PID: rs.Device, TID: tidCompute,
			Args: map[string]any{"speed": rs.Speed, "link": rs.Link},
		})
	}
	for _, qs := range r.queue {
		events = append(events, chromeEvent{
			Name: "queue", Cat: "launch", Phase: "C",
			TS: usec(qs.At), PID: qs.Device, TID: tidCompute,
			Args: map[string]any{"depth": qs.Depth},
		})
	}
	for _, f := range r.fails {
		events = append(events, chromeEvent{
			Name: "device-fail", Cat: "fault", Phase: "i",
			TS: usec(f.At), PID: f.Device, TID: tidCompute, Scope: "p",
		})
	}
	for _, rw := range r.recovery {
		if rw.End < rw.Start {
			continue // still open at the end of the run
		}
		events = append(events, chromeEvent{
			Name: "recovery", Cat: "fault", Phase: "X",
			TS: usec(rw.Start), Dur: usec(rw.End - rw.Start),
			PID: globalPID, TID: 0,
		})
	}
	events = append(events, r.runningCounters()...)
	events = append(events, r.metadata()...)
	events = append(events, r.servingEvents()...)
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	return json.NewEncoder(w).Encode(events)
}

// runningCounters derives per-device "running kernels" counter samples
// from the span edges, one sample per (instant, device) with the
// compute and comm resident counts.
func (r *Recorder) runningCounters() []chromeEvent {
	type edge struct {
		at    simclock.Time
		dev   int
		class gpusim.KernelClass
		delta int
	}
	edges := make([]edge, 0, 2*len(r.spans))
	for _, s := range r.spans {
		edges = append(edges, edge{s.Start, s.Device, s.Class, +1},
			edge{s.End, s.Device, s.Class, -1})
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		if edges[i].dev != edges[j].dev {
			return edges[i].dev < edges[j].dev
		}
		return edges[i].delta < edges[j].delta // ends before starts at ties
	})
	counts := map[int]*[2]int{}
	var out []chromeEvent
	for i := 0; i < len(edges); {
		at, dev := edges[i].at, edges[i].dev
		c := counts[dev]
		if c == nil {
			c = &[2]int{}
			counts[dev] = c
		}
		for ; i < len(edges) && edges[i].at == at && edges[i].dev == dev; i++ {
			if edges[i].class == gpusim.Comm {
				c[1] += edges[i].delta
			} else {
				c[0] += edges[i].delta
			}
		}
		out = append(out, chromeEvent{
			Name: "running", Cat: "util", Phase: "C",
			TS: usec(at), PID: dev, TID: tidCompute,
			Args: map[string]any{"compute": c[0], "comm": c[1]},
		})
	}
	return out
}

// metadata names the device and node processes and their tracks so
// Perfetto shows devices and track roles instead of bare ids.
func (r *Recorder) metadata() []chromeEvent {
	devs := map[int]bool{}
	for _, s := range r.spans {
		devs[s.Device] = true
	}
	for _, ws := range r.waits {
		devs[ws.Device] = true
	}
	for _, rs := range r.rates {
		devs[rs.Device] = true
	}
	for _, qs := range r.queue {
		devs[qs.Device] = true
	}
	for _, f := range r.fails {
		devs[f.Device] = true
	}
	var out []chromeEvent
	for _, d := range sortedIDs(devs) {
		out = append(out, process(d, "GPU "+strconv.Itoa(d), "compute", "comm", "rendezvous")...)
	}
	if len(r.recovery) > 0 {
		out = append(out, process(globalPID, "node")...)
	}
	return out
}

// process names one Chrome-trace process and its threads, the i-th
// thread name going to TID i.
func process(pid int, name string, threads ...string) []chromeEvent {
	out := []chromeEvent{{Name: "process_name", Phase: "M", PID: pid, Args: map[string]any{"name": name}}}
	for tid, t := range threads {
		out = append(out, chromeEvent{Name: "thread_name", Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": t}})
	}
	return out
}

// sortedIDs returns the keys of an id set in increasing order.
func sortedIDs(set map[int]bool) []int {
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// OverlapTime returns, per device, the total time during which a
// compute span and a comm span overlap — a direct measure of the
// interleaving Liger creates.
func (r *Recorder) OverlapTime(dev int) simclock.Time {
	var compute, comm []Interval
	for _, s := range r.spans {
		if s.Device != dev {
			continue
		}
		if s.Class == gpusim.Comm {
			comm = append(comm, s.Interval())
		} else {
			compute = append(compute, s.Interval())
		}
	}
	return Total(Intersect(Union(comm), Union(compute)))
}
