package trace

import "liger/internal/simclock"

// Serving-layer record types. They live here — not in serve — so the
// trace package stays below serve in the import graph (serve aliases
// them for its tracer interfaces); the serving layers emit these
// records and Recorder collects them.

// IterationRecord is one scheduler submission of the continuous
// batcher: either a prefill batch over newly admitted sequences or a
// decode iteration over the live pool. Start is the submission instant,
// End the completion; the KV gauges are sampled at submission, after
// admission and any watermark evictions ran.
type IterationRecord struct {
	// Pool identifies the batcher (decode-pool index in a disaggregated
	// cluster, 0 for a single-node run).
	Pool int
	// Seq numbers the batcher's submissions from 0 in scheduling order.
	Seq int
	// Prefill marks a context-phase batch; false is a decode iteration.
	Prefill bool
	Start   simclock.Time
	End     simclock.Time
	// Batch is the submission's sequence count (prefill batch size or
	// live-pool occupancy).
	Batch int
	// Waiting is the admission-queue depth after this step's admissions.
	Waiting int
	// Admitted counts sequences admitted in this step; Preempted counts
	// sequences evicted by this step's watermark/extend pressure;
	// Retired counts sequences that finished at this submission's
	// completion.
	Admitted  int
	Preempted int
	Retired   int
	// KVUsedBlocks/KVFreeBlocks/KVTotalBlocks sample the paged
	// allocator at submission (all zero without one); Pressure reports
	// free blocks under the eviction watermark at that instant.
	KVUsedBlocks  int
	KVFreeBlocks  int
	KVTotalBlocks int
	Pressure      bool
}

// SeqEventKind labels one point of a sequence's serving lifecycle.
type SeqEventKind string

const (
	// SeqArrive: the sequence entered a batcher's admission queue (or,
	// from the disaggregation frontend, entered the system).
	SeqArrive SeqEventKind = "arrive"
	// SeqPrefillStart/SeqPrefillEnd bracket a context-phase submission
	// covering the sequence (a recompute prefill after preemption emits
	// another pair).
	SeqPrefillStart SeqEventKind = "prefill_start"
	SeqPrefillEnd   SeqEventKind = "prefill_end"
	// SeqJoin: a transferred-in (already prefilled) sequence joined the
	// decode pool without a local prefill.
	SeqJoin SeqEventKind = "join"
	// SeqPreempt: evicted under memory pressure and re-queued with its
	// recompute obligation.
	SeqPreempt SeqEventKind = "preempt"
	// SeqFinish: generation completed (the frontend of a disaggregated
	// cluster emits a second finish when the notice reaches it).
	SeqFinish SeqEventKind = "finish"
)

// SeqEvent is one lifecycle instant of one sequence. A sequence's
// time-ordered events tile its latency exactly: the analyzer labels
// each gap between consecutive events (queue, prefill, decode,
// handoff, preempt-wait, recompute) from the closing event's kind.
type SeqEvent struct {
	Pool int
	Seq  int
	Kind SeqEventKind
	At   simclock.Time
	// Tokens carries the kind's size: prefill length for
	// prefill_start/prefill_end/join, cached tokens (the recompute
	// obligation) for preempt, produced tokens for finish.
	Tokens int
}

// RouterDecision is one routing outcome of the fleet router: a
// dispatch (with its power-of-two probe state), a hedge, a failure
// retry, an exactly-once node-loss re-dispatch, a shed, a park while
// no replica is healthy, or a park flush.
type RouterDecision struct {
	Req  int
	Kind string // dispatch | hedge | retry | redispatch | shed | park | flush
	// Replica is the chosen node (-1 for shed/park).
	Replica int
	// CandA/CandB are the two sampled candidates of the power-of-two
	// choice with their outstanding counts at decision time (CandB -1
	// when fewer than two replicas were healthy).
	CandA, CandB               int
	OutstandingA, OutstandingB int
	// Healthy is the healthy-replica count at decision time.
	Healthy int
	At      simclock.Time
}

// KVHandoff is one prefill→decode cache transfer of a disaggregated
// cluster, priced by the inter-node network: Bytes of KV moved from
// prefill node From to decode pool To over [Start, End].
type KVHandoff struct {
	Seq   int
	Req   int
	From  int // prefill-node index
	To    int // decode-pool index
	Bytes int64
	Start simclock.Time
	End   simclock.Time
}
