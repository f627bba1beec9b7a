package serve

import (
	"fmt"
	"math"
	"time"

	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/simclock"
)

// Policy is the deadline/retry serving policy. The zero value is the
// paper's original semantics: no deadlines, no retries, and any failed
// batch is a run error.
type Policy struct {
	// Deadline is the per-batch latency SLO (arrival to final success);
	// zero disables deadline accounting.
	Deadline time.Duration
	// MaxRetries bounds resubmissions per batch after a failure
	// (a collective abort under fault injection). Zero disables retry:
	// a failed batch counts in Result.Failed immediately.
	MaxRetries int
	// Backoff is the delay before the first resubmission; each further
	// retry doubles it (capped exponential backoff).
	Backoff time.Duration
	// BackoffCap bounds the doubled backoff; zero means no cap.
	BackoffCap time.Duration
	// QueueLimit bounds admitted-but-unresolved batches (the bounded
	// admission queue). An arrival past the bound is shed — counted in
	// Result.Shed, never submitted — so a recovery backlog drains
	// instead of compounding into the retry loop. Zero disables
	// shedding.
	QueueLimit int
}

// Validate reports nonsensical policies.
func (p Policy) Validate() error {
	switch {
	case p.Deadline < 0:
		return fmt.Errorf("serve: negative deadline %v", p.Deadline)
	case p.MaxRetries < 0:
		return fmt.Errorf("serve: negative retry budget %d", p.MaxRetries)
	case p.Backoff < 0 || p.BackoffCap < 0:
		return fmt.Errorf("serve: negative backoff %v / cap %v", p.Backoff, p.BackoffCap)
	case p.MaxRetries > 0 && p.Backoff == 0:
		return fmt.Errorf("serve: retries without a backoff would resubmit at the failure instant")
	case p.BackoffCap > 0 && p.BackoffCap < p.Backoff:
		return fmt.Errorf("serve: backoff cap %v below the first delay %v", p.BackoffCap, p.Backoff)
	case p.QueueLimit < 0:
		return fmt.Errorf("serve: negative queue limit %d", p.QueueLimit)
	}
	return nil
}

// backoffFor returns the delay before resubmission attempt (1-based).
// The doubling saturates: at the cap when one is set, else at the
// maximum representable duration (the former unbounded doubling
// overflowed to a negative delay around attempt 63).
func (p Policy) backoffFor(attempt int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < attempt; i++ {
		if p.BackoffCap > 0 && d >= p.BackoffCap {
			return p.BackoffCap
		}
		if d > math.MaxInt64/2 {
			return time.Duration(math.MaxInt64)
		}
		d *= 2
	}
	if p.BackoffCap > 0 && d > p.BackoffCap {
		return p.BackoffCap
	}
	return d
}

// Result summarizes one serving run.
type Result struct {
	Runtime string
	// Scenario names the declarative scenario this run served, when it
	// was driven by one (internal/scenario); empty otherwise. It rides
	// along in the JSON encoding so scenario artifacts are
	// self-identifying and tools/benchdiff can diff them by dotted path.
	Scenario string
	// Completed is the number of batches that finished successfully.
	Completed int
	// Requests is successful batches × batch size.
	Requests int
	// AvgLatency is the mean pending + execution latency per batch.
	AvgLatency time.Duration
	// P50/P95/P99 latency percentiles.
	P50, P95, P99 time.Duration
	// Makespan is first arrival to last completion.
	Makespan time.Duration
	// Latencies holds every successful batch latency, completion-ordered.
	// Retried batches are measured from their original arrival, so
	// backoff time is inside the number.
	Latencies []time.Duration

	// Deadline echoes Policy.Deadline so goodput and SLO-miss accessors
	// need no extra argument (zero when no deadline was set).
	Deadline time.Duration
	// Retries counts resubmissions after failures.
	Retries int
	// Failed counts batches that exhausted the retry budget and never
	// succeeded.
	Failed int
	// DeadlineMisses counts successful batches that finished past the
	// deadline (failed batches are accounted separately).
	DeadlineMisses int

	// Shed counts arrivals dropped by the bounded admission queue
	// (Policy.QueueLimit); they were never submitted. Every arrival is
	// accounted exactly once: Completed + Failed + Shed = arrivals.
	Shed int
	// Deferred counts arrivals that landed while the runtime was
	// reconfiguring after a device failure: they were parked and
	// submitted at the resume instant, and still resolve into Completed
	// or Failed.
	Deferred int
	// Failovers counts device-failure reconfigurations the runtime
	// performed during the run. In a fleet run (RunFleet) it also counts
	// whole-node evictions.
	Failovers int
	// Hedges counts duplicate dispatches the fleet router sent after the
	// hedging delay elapsed without a completion (zero in single-node
	// runs, which never hedge).
	Hedges int
	// RecoveryTime is the total sim time the runtime reported
	// "reconfiguring" (time-to-recover, summed over failovers).
	RecoveryTime time.Duration

	// TTFT/TPOT are the mean time-to-first-token and time-per-output-
	// token of a continuous-batching run (scenario workload.mode:
	// continuous); zero for batch-serving runs.
	TTFT time.Duration
	TPOT time.Duration
	// Preemptions counts sequences evicted under KV memory pressure in a
	// continuous run (paged allocator only).
	Preemptions int

	// Continuous marks a continuous-batching (token-serving) run. The
	// JSON encoding keys on it: continuous runs always emit the serving
	// block (ttft_ms, tpot_ms, preemptions, recomputed_tokens,
	// iterations, mean_pool, kv_peak_blocks) even when every value is
	// zero, so tools/benchdiff dotted paths never go structurally
	// missing between artifacts.
	Continuous bool
	// RecomputedTokens totals the prefill tokens recomputed after
	// preemptions (recompute-on-resume); Iterations and MeanPool
	// describe decode scheduling; KVPeakBlocks is the paged allocator's
	// allocation high-water mark (zero when the run has no KV allocator).
	RecomputedTokens int
	Iterations       int
	MeanPool         float64
	KVPeakBlocks     int

	// PerRequest holds the serving-side latency decomposition, one entry
	// per arrival in arrival order (batch runs: RunPolicy and RunFleet).
	PerRequest []RequestLat
}

// RequestLat decomposes one arrival's serving-side latency. The
// on-device split (compute/comm/stall) comes from the trace recorder
// (trace.Recorder.ReqBreakdown), keyed by Req.
type RequestLat struct {
	// Req is the request id: the arrival's index, as threaded to the
	// runtime via runtimes.Tagged.
	Req int
	// Arrival and Done are sim instants (Done is the terminal
	// resolution: final success or final failure; for a shed arrival it
	// equals Arrival).
	Arrival time.Duration
	Done    time.Duration
	// QueueWait is arrival → first submission to the runtime: admission
	// queueing plus any pre-submission deferral.
	QueueWait time.Duration
	// Deferral is the total time the request sat parked while the
	// runtime reconfigured after a device failure (both the deferred
	// first submission and parked retries).
	Deferral time.Duration
	// Retries counts this request's resubmissions after failures.
	Retries int
	Failed  bool
	Shed    bool
}

// ThroughputBatches returns completed batches per second.
func (r Result) ThroughputBatches() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Makespan.Seconds()
}

// ThroughputRequests returns completed requests per second (the paper's
// throughput metric).
func (r Result) ThroughputRequests() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Makespan.Seconds()
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-9s  avgLat=%-12v p99=%-12v throughput=%.2f req/s",
		r.Runtime, r.AvgLatency.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.ThroughputRequests())
}

// Run drives a runtime with the arrival trace on the given engine and
// collects metrics once every batch completes. It keeps the original
// strict semantics: no deadlines, no retries, and any failure is an
// error.
func Run(eng *simclock.Engine, rt runtimes.Runtime, arrivals []Arrival) (Result, error) {
	res, err := RunPolicy(eng, rt, arrivals, Policy{})
	if err != nil {
		return res, err
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("serve: %d batches failed with no retry policy", res.Failed)
	}
	return res, nil
}

// RunPolicy drives a runtime with the arrival trace under a
// deadline/retry policy. It is RunFleet over a one-replica view of the
// runtime (node), so one node and a fleet serve under one
// implementation of every policy rule. A batch whose completion reports
// Failed (a collective abort under fault injection) is resubmitted
// after a capped exponential backoff until it succeeds or the retry
// budget is spent; successful-batch latency spans original arrival to
// final success, so goodput and deadline misses price in the recovery
// time.
//
// Recovery-aware overload protection: when the runtime is Elastic and
// reports "reconfiguring" after a permanent device failure, the replica
// is down until the resume instant. Arrivals and retries that come due
// meanwhile are parked and submitted at the resume, and a batch that
// fails mid-recovery pays its backoff from the resume — the retry
// budget is spent against the new world, not the dead one.
// Independently, QueueLimit sheds arrivals past the admission bound so
// the post-failure backlog drains instead of compounding.
func RunPolicy(eng *simclock.Engine, rt runtimes.Runtime, arrivals []Arrival, pol Policy) (Result, error) {
	n := &node{eng: eng, rt: rt}
	n.tagged, _ = rt.(runtimes.Tagged)
	n.elastic, _ = rt.(runtimes.Elastic)
	return RunFleet(n, arrivals, pol, RouterPolicy{})
}

// node is the one-replica FleetRuntime RunPolicy routes through: the
// runtime is replica 0 and its engine is the frontend. It reads
// Reconfiguring only when a dispatch or a failed completion finds the
// runtime, reports the replica Down when it is, and Up at the resume.
type node struct {
	eng     *simclock.Engine
	rt      runtimes.Runtime
	tagged  runtimes.Tagged
	elastic runtimes.Elastic
	hooks   RouterHooks
	// reqs maps the runtime's batch IDs, assigned in submission order,
	// to request ids.
	reqs []int
	// err is the first submit error.
	err error
}

func (n *node) RuntimeName() string        { return n.rt.Name() }
func (n *node) Replicas() int              { return 1 }
func (n *node) Frontend() *simclock.Engine { return n.eng }
func (n *node) Run() error                 { n.eng.Run(); return n.err }

func (n *node) SetRouter(h RouterHooks) {
	n.hooks = h
	n.rt.SetOnDone(func(c runtimes.Completion) {
		status := DispatchOK
		if c.Failed {
			status = DispatchFailed
			n.down(c.Done)
		}
		h.Done(0, n.reqs[c.ID], status, c.Done)
	})
	if n.elastic != nil {
		n.elastic.OnReconfigured(func(now simclock.Time) { h.Up(0, now) })
	}
}

// down reports the replica Down when the runtime is reconfiguring.
func (n *node) down(now simclock.Time) bool {
	if n.elastic == nil || !n.elastic.Reconfiguring() {
		return false
	}
	n.hooks.Down(0, now)
	return true
}

// Dispatch submits req at once, tagged when the runtime takes tags, or
// bounces it DispatchBusy when the runtime is reconfiguring. A submit
// that errors took no batch ID, so its record comes out again: later
// completions index the records by batch ID.
func (n *node) Dispatch(_, req int, w model.Workload) {
	now := n.eng.Now()
	if n.down(now) {
		n.hooks.Done(0, req, DispatchBusy, now)
		return
	}
	n.reqs = append(n.reqs, req)
	var err error
	if n.tagged != nil {
		err = n.tagged.SubmitReq(w, req)
	} else {
		err = n.rt.Submit(w)
	}
	if err != nil {
		n.reqs = n.reqs[:len(n.reqs)-1]
		if n.err == nil {
			n.err = err
		}
	}
}

func (n *node) FleetStats() (int, time.Duration) {
	if n.elastic == nil {
		return 0, 0
	}
	return n.elastic.FailoverStats()
}
