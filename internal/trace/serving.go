package trace

import (
	"sort"
	"strconv"

	"liger/internal/kvcache"
)

// The serving half of Recorder: batcher iterations, sequence
// lifecycles, paged-KV block transitions, router decisions and
// disaggregation KV handoffs, rendered as Chrome-trace lanes beside the
// device trace. Recorder implements serve.ServingTracer and
// kvcache.Tracer (cluster.Disagg records its KV handoffs through
// KVHandoff directly), so one recorder wires the whole stack:
//
//	rec := trace.NewRecorder()
//	batcher.SetTracer(rec, 0)
//	paged.SetTracer(rec, eng.Now)
//	routerPolicy.Tracer = rec
//
// A recorder is single-goroutine (one engine shard); multi-shard
// owners (cluster.Disagg) keep one recorder per shard and Merge them
// after the run, which keeps recording race-free and — with the fixed
// merge order plus the stable time sort — byte-deterministic at any
// worker count.

// ServingRecorder is an alias of Recorder.
//
// Deprecated: use Recorder.
type ServingRecorder = Recorder

// NewServingRecorder returns NewRecorder().
//
// Deprecated: use NewRecorder.
func NewServingRecorder() *Recorder { return NewRecorder() }

// PoolKVEvent is one paged-allocator transition attributed to its
// decode pool (the allocator itself doesn't know which pool owns it).
type PoolKVEvent struct {
	Pool int
	kvcache.KVEvent
}

// SetPool sets the decode-pool index stamped on subsequent KV events
// (0 in a new recorder), for per-node recorders.
func (r *Recorder) SetPool(pool int) { r.pool = pool }

var _ kvcache.Tracer = (*Recorder)(nil)

// Iteration implements serve.ServingTracer.
func (r *Recorder) Iteration(rec IterationRecord) {
	r.iterations = append(r.iterations, rec)
}

// SeqEvent implements serve.ServingTracer.
func (r *Recorder) SeqEvent(e SeqEvent) {
	r.seqEvents = append(r.seqEvents, e)
}

// RouterDecision implements serve.ServingTracer.
func (r *Recorder) RouterDecision(d RouterDecision) {
	r.decisions = append(r.decisions, d)
}

// KVHandoff records one prefill→decode cache transfer; cluster.Disagg
// calls it on its frontend recorder.
func (r *Recorder) KVHandoff(h KVHandoff) {
	r.handoffs = append(r.handoffs, h)
}

// KVEvent implements kvcache.Tracer.
func (r *Recorder) KVEvent(e kvcache.KVEvent) {
	r.kvEvents = append(r.kvEvents, PoolKVEvent{Pool: r.pool, KVEvent: e})
}

// Merge appends every serving record of o. The caller merges shards in
// a fixed order and then calls Normalize once, so the combined streams
// are a pure function of the simulation. A node's streams come from
// one shard and are never merged.
func (r *Recorder) Merge(o *Recorder) {
	r.iterations = append(r.iterations, o.iterations...)
	r.seqEvents = append(r.seqEvents, o.seqEvents...)
	r.kvEvents = append(r.kvEvents, o.kvEvents...)
	r.decisions = append(r.decisions, o.decisions...)
	r.handoffs = append(r.handoffs, o.handoffs...)
}

// Normalize stably sorts every serving stream by (time, pool),
// preserving each shard's in-order semantics while making merged output
// independent of which streams saw events first.
func (r *Recorder) Normalize() {
	sort.SliceStable(r.iterations, func(i, j int) bool {
		a, b := r.iterations[i], r.iterations[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Pool < b.Pool
	})
	sort.SliceStable(r.seqEvents, func(i, j int) bool {
		a, b := r.seqEvents[i], r.seqEvents[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Pool < b.Pool
	})
	sort.SliceStable(r.kvEvents, func(i, j int) bool {
		a, b := r.kvEvents[i], r.kvEvents[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Pool < b.Pool
	})
	sort.SliceStable(r.decisions, func(i, j int) bool {
		a, b := r.decisions[i], r.decisions[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Req < b.Req
	})
	sort.SliceStable(r.handoffs, func(i, j int) bool {
		a, b := r.handoffs[i], r.handoffs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Seq < b.Seq
	})
}

// Iterations returns the recorded batcher submissions.
func (r *Recorder) Iterations() []IterationRecord { return r.iterations }

// SeqEvents returns the recorded sequence lifecycle instants.
func (r *Recorder) SeqEvents() []SeqEvent { return r.seqEvents }

// KVEvents returns the recorded paged-allocator transitions.
func (r *Recorder) KVEvents() []PoolKVEvent { return r.kvEvents }

// RouterDecisions returns the recorded routing outcomes.
func (r *Recorder) RouterDecisions() []RouterDecision { return r.decisions }

// KVHandoffs returns the recorded prefill→decode cache transfers.
func (r *Recorder) KVHandoffs() []KVHandoff { return r.handoffs }

// Serving-trace track layout: each decode pool is a process with an
// iteration lane, a KV-pressure counter track, and a lifecycle lane;
// the router and the handoff fabric get processes of their own. PIDs
// sit above globalPID, so the serving and device events share one
// trace without id collisions.
const (
	servingPIDBase = 1<<20 + 1<<10 // pool p => servingPIDBase + p
	routerPID      = 1<<20 + 1<<16
	handoffPID     = routerPID + 1

	tidIterations = 0
	tidKV         = 1
	tidLifecycle  = 2
)

// servingEvents renders the serving half of WriteChromeTrace: one
// iteration lane per pool ("prefill"/"decode" spans with occupancy and
// KV gauges), a per-pool kv_blocks counter track with a
// watermark-pressure instant at every pressured transition, lifecycle
// instants (arrive/prefill/join/preempt/finish), router-decision
// instants, and KV-handoff spans with flow arrows into the receiving
// pool, then the names of those processes. Its bytes in the trace are a
// pure function of the normalized record streams.
func (r *Recorder) servingEvents() []chromeEvent {
	events := make([]chromeEvent, 0,
		len(r.iterations)+len(r.seqEvents)+2*len(r.kvEvents)+len(r.decisions)+3*len(r.handoffs))
	for _, it := range r.iterations {
		name := "decode"
		if it.Prefill {
			name = "prefill"
		}
		args := map[string]any{
			"batch":    it.Batch,
			"waiting":  it.Waiting,
			"admitted": it.Admitted,
			"retired":  it.Retired,
		}
		if it.Preempted > 0 {
			args["preempted"] = it.Preempted
		}
		if it.KVTotalBlocks > 0 {
			args["kv_used"] = it.KVUsedBlocks
			args["kv_free"] = it.KVFreeBlocks
		}
		if it.Pressure {
			args["pressure"] = true
		}
		events = append(events, chromeEvent{
			Name: name, Cat: "serving", Phase: "X",
			TS: usec(it.Start), Dur: usec(it.End - it.Start),
			PID: servingPIDBase + it.Pool, TID: tidIterations, Args: args,
		})
	}
	for _, e := range r.seqEvents {
		events = append(events, chromeEvent{
			Name: string(e.Kind), Cat: "lifecycle", Phase: "i",
			TS: usec(e.At), PID: servingPIDBase + e.Pool, TID: tidLifecycle, Scope: "t",
			Args: map[string]any{"seq": e.Seq, "tokens": e.Tokens},
		})
	}
	for _, e := range r.kvEvents {
		events = append(events, chromeEvent{
			Name: "kv_blocks", Cat: "kv", Phase: "C",
			TS: usec(e.At), PID: servingPIDBase + e.Pool, TID: tidKV,
			Args: map[string]any{"used": e.Used, "free": e.Free},
		})
		if e.Pressure {
			events = append(events, chromeEvent{
				Name: "kv-pressure", Cat: "kv", Phase: "i",
				TS: usec(e.At), PID: servingPIDBase + e.Pool, TID: tidKV, Scope: "t",
				Args: map[string]any{"kind": string(e.Kind), "seq": e.Seq, "free": e.Free},
			})
		}
	}
	for _, d := range r.decisions {
		args := map[string]any{"req": d.Req, "replica": d.Replica, "healthy": d.Healthy}
		if d.CandA >= 0 {
			args["cand_a"] = d.CandA
			args["out_a"] = d.OutstandingA
		}
		if d.CandB >= 0 {
			args["cand_b"] = d.CandB
			args["out_b"] = d.OutstandingB
		}
		events = append(events, chromeEvent{
			Name: d.Kind, Cat: "router", Phase: "i",
			TS: usec(d.At), PID: routerPID, TID: 0, Scope: "t", Args: args,
		})
	}
	for _, h := range r.handoffs {
		id := strconv.Itoa(h.Seq)
		args := map[string]any{"seq": h.Seq, "from": h.From, "to": h.To, "bytes": h.Bytes}
		if h.Req >= 0 {
			args["req"] = h.Req
		}
		events = append(events,
			chromeEvent{
				Name: "kv-handoff", Cat: "handoff", Phase: "X",
				TS: usec(h.Start), Dur: usec(h.End - h.Start),
				PID: handoffPID, TID: 0, Args: args,
			},
			chromeEvent{
				Name: "kv-handoff", Cat: "handoff", Phase: "s",
				TS: usec(h.Start), PID: handoffPID, TID: 0, ID: id,
			},
			chromeEvent{
				Name: "kv-handoff", Cat: "handoff", Phase: "f",
				TS: usec(h.End), PID: servingPIDBase + h.To, TID: tidLifecycle, ID: id,
			},
		)
	}
	pools := map[int]bool{}
	for _, it := range r.iterations {
		pools[it.Pool] = true
	}
	for _, e := range r.seqEvents {
		pools[e.Pool] = true
	}
	for _, e := range r.kvEvents {
		pools[e.Pool] = true
	}
	for _, p := range sortedIDs(pools) {
		name := "pool " + strconv.Itoa(p)
		if p < 0 {
			name = "frontend"
		}
		events = append(events, process(servingPIDBase+p, name, "iterations", "kv blocks", "lifecycle")...)
	}
	if len(r.decisions) > 0 {
		events = append(events, process(routerPID, "router", "decisions")...)
	}
	if len(r.handoffs) > 0 {
		events = append(events, process(handoffPID, "kv handoff", "transfers")...)
	}
	return events
}
