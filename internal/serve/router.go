package serve

import (
	"fmt"
	"math/rand"
	"time"

	"liger/internal/model"
	"liger/internal/simclock"
	"liger/internal/stats"
)

// This file is the request router: the serving layer's front door for
// every batch run, whether the simulation is a cluster of replica
// nodes (internal/cluster) or one node, which RunPolicy serves as a
// one-replica fleet. The router runs on the fleet's frontend shard and
// owns every placement decision:
//
//   - load balancing: power-of-two-choices over the healthy replicas,
//     breaking the choice by least outstanding requests (and replica id
//     on ties), so placement is both balanced and deterministic;
//   - health: replicas are marked down while they reconfigure after an
//     intra-node device failure and evicted outright on whole-node
//     loss; new work avoids them until the fleet reports them up, and a
//     request that fails while no replica is healthy parks with its
//     retry pending and pays its backoff from the next up;
//   - node-loss re-dispatch: when a replica is evicted, every request
//     it still held is re-dispatched to a healthy replica exactly once
//     (one Result.Retries increment each) with latency still measured
//     from the original arrival;
//   - hedging: a request with no completion after RouterPolicy.Hedge
//     gets one duplicate dispatch to a different healthy replica; the
//     first completion wins and the loser is dropped;
//   - overload: Policy.QueueLimit bounds fleet-wide admitted-but-
//     unresolved requests; arrivals past the bound are shed.
//
// Everything the router does happens on the frontend engine, so its
// decisions are single-threaded and deterministic; all fleet
// interaction crosses shard boundaries through the lookahead executor.

// FleetRuntime is the router's view of a simulated fleet. It is
// implemented by internal/cluster.Fleet, and for one node by RunPolicy's
// one-replica view; the indirection keeps serve free of the cluster
// package (which imports serve for Result).
type FleetRuntime interface {
	// RuntimeName names the per-replica runtime (Liger, Intra-Op, ...).
	RuntimeName() string
	// Replicas is the number of model replicas (fixed for the run; an
	// evicted replica keeps its id and may return on spare capacity).
	Replicas() int
	// Frontend returns the router's shard engine. Arrivals, retries,
	// and hedge timers are scheduled on it.
	Frontend() *simclock.Engine
	// SetRouter registers the router callbacks. Must be called before
	// Run.
	SetRouter(RouterHooks)
	// Dispatch sends request req to replica rep. Must be called from a
	// frontend engine event; delivery pays the network latency.
	Dispatch(rep, req int, w model.Workload)
	// Run drives the whole fleet simulation to completion.
	Run() error
	// FleetStats reports recovery accounting after Run: completed
	// failovers (node re-placements plus intra-node device-failure
	// recoveries) and the total sim time spent recovering.
	FleetStats() (failovers int, recovery time.Duration)
}

// DispatchStatus classifies one completion notice from the fleet.
type DispatchStatus int

const (
	// DispatchOK: the replica served the request.
	DispatchOK DispatchStatus = iota
	// DispatchFailed: the replica executed the request but it failed (a
	// collective abort under fault injection) — the policy retry path.
	DispatchFailed
	// DispatchLost: the request reached a dead node and is gone; the
	// router re-dispatches it without spending retry budget.
	DispatchLost
	// DispatchBusy: the replica was reconfiguring when the request
	// arrived and never accepted it; the router places it elsewhere.
	DispatchBusy
)

// RouterHooks are the router callbacks a FleetRuntime invokes (always
// from frontend engine events).
type RouterHooks struct {
	// Done delivers a completion notice for request req from replica rep.
	Done func(rep, req int, status DispatchStatus, now simclock.Time)
	// Evicted reports whole-node loss: rep is gone and its outstanding
	// requests must be re-dispatched.
	Evicted func(rep int, now simclock.Time)
	// Down marks rep temporarily unhealthy (intra-node failover in
	// progress).
	Down func(rep int, now simclock.Time)
	// Up marks rep healthy: recovered from an intra-node failover, or
	// re-placed onto a spare node after eviction.
	Up func(rep int, now simclock.Time)
}

// RouterPolicy tunes router behavior beyond the serving Policy.
type RouterPolicy struct {
	// Hedge is the delay after a request's first dispatch before the
	// router sends one duplicate to a different healthy replica; zero
	// disables hedging.
	Hedge time.Duration
	// Seed drives the power-of-two-choices sampling stream.
	Seed int64
	// Tracer observes every routing outcome (dispatch/hedge/retry/
	// redispatch/shed/park/flush) with its probe state; nil disables
	// decision tracing. Tracing never changes placement: the sampling
	// stream and all accounting are byte-identical with or without it.
	Tracer ServingTracer
}

// fleetReq is the router's per-request state.
type fleetReq struct {
	// active lists the replicas currently holding a live dispatch of
	// this request (two while a hedge is in flight).
	active []int
	// attempt is the policy retry count already spent.
	attempt  int
	parkedAt simclock.Time
	resolved bool
	hedged   bool
	parked   bool
	deferred bool
	// retry marks a parked request whose spent retry starts its backoff
	// at the next Up.
	retry bool
}

func (q *fleetReq) holds(rep int) bool {
	for _, r := range q.active {
		if r == rep {
			return true
		}
	}
	return false
}

func (q *fleetReq) drop(rep int) {
	for i, r := range q.active {
		if r == rep {
			q.active = append(q.active[:i], q.active[i+1:]...)
			return
		}
	}
}

// RunFleet drives a fleet with the arrival trace under a deadline/
// retry policy plus router-level placement, health, hedging, and
// node-loss re-dispatch. RunPolicy is RunFleet over a one-replica
// fleet, so goodput/SLO/recovery metrics are comparable between one
// node and a fleet by construction. The Result is fleet-wide: every
// arrival resolves into exactly one of Completed, Failed, or Shed;
// successful-batch latency spans original arrival to final success
// (router round trips, retries, and re-dispatches included);
// Failovers/RecoveryTime aggregate the fleet's recovery accounting.
func RunFleet(f FleetRuntime, arrivals []Arrival, pol Policy, rp RouterPolicy) (Result, error) {
	res := Result{Runtime: f.RuntimeName(), Deadline: pol.Deadline}
	if len(arrivals) == 0 {
		return res, fmt.Errorf("serve: empty trace")
	}
	if err := pol.Validate(); err != nil {
		return res, err
	}
	if f.Replicas() < 1 {
		return res, fmt.Errorf("serve: fleet has no replicas")
	}
	if rp.Hedge < 0 {
		return res, fmt.Errorf("serve: negative hedge delay %v", rp.Hedge)
	}
	eng := f.Frontend()
	nrep := f.Replicas()
	rng := rand.New(rand.NewSource(rp.Seed ^ 0x5eed4007))

	res.PerRequest = make([]RequestLat, len(arrivals))
	for i := range res.PerRequest {
		res.PerRequest[i] = RequestLat{Req: i, Arrival: time.Duration(arrivals[i].At)}
	}

	healthy := make([]bool, nrep)
	evicted := make([]bool, nrep)
	outstanding := make([]int, nrep)
	for i := range healthy {
		healthy[i] = true
	}
	reqs := make([]fleetReq, len(arrivals))
	var parkedList []int
	var lastDone simclock.Time
	inflight := 0

	healthyCount := func() int {
		n := 0
		for _, h := range healthy {
			if h {
				n++
			}
		}
		return n
	}

	// emit records one routing outcome (candidate outstanding counts are
	// sampled at decision time, before the dispatch increments them).
	emit := func(req int, kind string, rep, ca, cb int, at simclock.Time) {
		if rp.Tracer == nil {
			return
		}
		d := RouterDecision{
			Req: req, Kind: kind, Replica: rep,
			CandA: ca, CandB: cb,
			OutstandingA: -1, OutstandingB: -1,
			Healthy: healthyCount(),
			At:      at,
		}
		if ca >= 0 {
			d.OutstandingA = outstanding[ca]
		}
		if cb >= 0 {
			d.OutstandingB = outstanding[cb]
		}
		rp.Tracer.RouterDecision(d)
	}

	// pick returns the target replica: power-of-two-choices over the
	// healthy set, least-outstanding breaking the choice, lower id
	// breaking ties. Returns -1 when no replica is healthy; ca/cb are
	// the sampled probe candidates (cb -1 when fewer than two).
	cands := make([]int, 0, nrep)
	pick := func(exclude int) (rep, ca, cb int) {
		cands = cands[:0]
		for r := 0; r < nrep; r++ {
			if healthy[r] && r != exclude {
				cands = append(cands, r)
			}
		}
		switch len(cands) {
		case 0:
			return -1, -1, -1
		case 1:
			return cands[0], cands[0], -1
		}
		i := rng.Intn(len(cands))
		j := rng.Intn(len(cands) - 1)
		if j >= i {
			j++
		}
		a, b := cands[i], cands[j]
		if outstanding[b] < outstanding[a] || (outstanding[b] == outstanding[a] && b < a) {
			return b, a, b
		}
		return a, a, b
	}

	sendTo := func(rep, req int) {
		outstanding[rep]++
		reqs[req].active = append(reqs[req].active, rep)
		f.Dispatch(rep, req, arrivals[req].Workload)
	}

	var armHedge func(req int)

	// place dispatches req to the best healthy replica (never exclude,
	// which just bounced it), or parks it when no replica qualifies
	// (flushed on the next Up). kind labels the decision record.
	place := func(req int, now simclock.Time, exclude int, kind string) {
		q := &reqs[req]
		rep, ca, cb := pick(exclude)
		if rep < 0 {
			if !q.parked {
				q.parked = true
				q.parkedAt = now
				parkedList = append(parkedList, req)
				if q.attempt == 0 && !q.deferred {
					q.deferred = true
					res.Deferred++
				}
				emit(req, "park", -1, -1, -1, now)
			}
			return
		}
		if q.attempt == 0 && len(q.active) == 0 && res.PerRequest[req].QueueWait == 0 {
			res.PerRequest[req].QueueWait = time.Duration(now) - res.PerRequest[req].Arrival
		}
		emit(req, kind, rep, ca, cb, now)
		sendTo(rep, req)
		if rp.Hedge > 0 && !q.hedged {
			armHedge(req)
		}
	}

	armHedge = func(req int) {
		reqs[req].hedged = true
		eng.After(rp.Hedge, func(now simclock.Time) {
			q := &reqs[req]
			if q.resolved || q.parked || len(q.active) == 0 {
				return
			}
			rep, ca, cb := pick(q.active[0])
			if rep < 0 || q.holds(rep) {
				return
			}
			res.Hedges++
			emit(req, "hedge", rep, ca, cb, now)
			sendTo(rep, req)
		})
	}

	resolve := func(req int, now simclock.Time, ok bool) {
		q := &reqs[req]
		q.resolved = true
		inflight--
		res.PerRequest[req].Done = time.Duration(now)
		if ok {
			res.Completed++
			res.Requests += arrivals[req].Workload.Batch
			lat := time.Duration(now - arrivals[req].At)
			res.Latencies = append(res.Latencies, lat)
			if pol.Deadline > 0 && lat > pol.Deadline {
				res.DeadlineMisses++
			}
		} else {
			res.Failed++
			res.PerRequest[req].Failed = true
		}
	}

	// armRetry places req again once its backoff elapses.
	armRetry := func(req int) {
		eng.After(pol.backoffFor(reqs[req].attempt), func(now simclock.Time) {
			if !reqs[req].resolved {
				place(req, now, -1, "retry")
			}
		})
	}

	// retryAfterBackoff spends one policy retry on req. When no replica
	// is healthy the retry parks and its backoff starts at the next Up,
	// so the budget is spent against the recovered fleet, not the
	// failing one.
	retryAfterBackoff := func(req int, now simclock.Time) {
		q := &reqs[req]
		q.attempt++
		res.Retries++
		res.PerRequest[req].Retries++
		if healthyCount() == 0 {
			q.retry = true
			place(req, now, -1, "retry") // parks it
			return
		}
		armRetry(req)
	}

	// redispatch is the node-loss path: the request is re-placed
	// immediately (the loss is known, not speculative), away from the
	// lost replica, and counted once in Result.Retries without spending
	// the policy retry budget.
	redispatch := func(req int, now simclock.Time, exclude int) {
		res.Retries++
		res.PerRequest[req].Retries++
		place(req, now, exclude, "redispatch")
	}

	hooks := RouterHooks{
		Done: func(rep, req int, status DispatchStatus, now simclock.Time) {
			q := &reqs[req]
			if !q.holds(rep) {
				// Stale: the dispatch was already re-owned (the replica was
				// evicted and the request re-dispatched before this notice
				// arrived). Nothing to account — exactly-once is the point.
				return
			}
			q.drop(rep)
			if !evicted[rep] {
				outstanding[rep]--
			}
			if status == DispatchOK || status == DispatchFailed {
				if now > lastDone {
					lastDone = now
				}
			}
			if q.resolved {
				return // late hedge loser
			}
			switch status {
			case DispatchOK:
				resolve(req, now, true)
			case DispatchLost:
				if len(q.active) > 0 {
					return // a hedge copy is still live elsewhere
				}
				redispatch(req, now, rep)
			case DispatchBusy:
				// Never accepted: place it elsewhere at no accounting cost
				// (its latency clock keeps running from the arrival).
				if len(q.active) > 0 {
					return
				}
				place(req, now, rep, "dispatch")
			case DispatchFailed:
				if len(q.active) > 0 {
					return // the hedge copy may still succeed
				}
				if q.attempt < pol.MaxRetries {
					retryAfterBackoff(req, now)
				} else {
					resolve(req, now, false)
				}
			}
		},
		Evicted: func(rep int, now simclock.Time) {
			healthy[rep] = false
			evicted[rep] = true
			outstanding[rep] = 0
			// Re-dispatch everything the dead replica still held, exactly
			// once each, keeping latency measured from original arrival.
			for req := range reqs {
				q := &reqs[req]
				if q.resolved || !q.holds(rep) {
					continue
				}
				q.drop(rep)
				if len(q.active) > 0 {
					continue // hedge copy still live on another replica
				}
				redispatch(req, now, rep)
			}
		},
		Down: func(rep int, now simclock.Time) {
			if !evicted[rep] {
				healthy[rep] = false
			}
		},
		Up: func(rep int, now simclock.Time) {
			healthy[rep] = true
			evicted[rep] = false
			outstanding[rep] = 0
			flush := parkedList
			parkedList = nil
			for _, req := range flush {
				q := &reqs[req]
				q.parked = false
				res.PerRequest[req].Deferral += time.Duration(now - q.parkedAt)
				switch {
				case q.resolved:
				case q.retry:
					q.retry = false
					armRetry(req)
				default:
					place(req, now, -1, "flush")
				}
			}
		},
	}
	f.SetRouter(hooks)

	for i, a := range arrivals {
		req := i
		eng.At(a.At, func(now simclock.Time) {
			if pol.QueueLimit > 0 && inflight >= pol.QueueLimit {
				res.Shed++
				res.PerRequest[req].Shed = true
				res.PerRequest[req].Done = time.Duration(now)
				emit(req, "shed", -1, -1, -1, now)
				return
			}
			inflight++
			place(req, now, -1, "dispatch")
		})
	}

	if err := f.Run(); err != nil {
		return res, err
	}

	// Requests still parked when the fleet drained never found a healthy
	// replica again (no spare capacity): they fail.
	for req := range reqs {
		q := &reqs[req]
		if q.parked && !q.resolved {
			q.resolved = true
			res.Failed++
			res.PerRequest[req].Failed = true
			res.PerRequest[req].Done = time.Duration(q.parkedAt)
		}
	}
	res.Failovers, res.RecoveryTime = f.FleetStats()
	if res.Completed+res.Failed+res.Shed != len(arrivals) {
		return res, fmt.Errorf("serve: %d of %d requests accounted for (%d ok, %d failed, %d shed)",
			res.Completed+res.Failed+res.Shed, len(arrivals), res.Completed, res.Failed, res.Shed)
	}
	res.AvgLatency = stats.Mean(res.Latencies)
	pcts := stats.Percentiles(res.Latencies, 50, 95, 99)
	res.P50, res.P95, res.P99 = pcts[0], pcts[1], pcts[2]
	res.Makespan = time.Duration(lastDone - arrivals[0].At)
	return res, nil
}
