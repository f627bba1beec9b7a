package serve

import "liger/internal/trace"

// Serving-layer tracing mirrors gpusim's: one ServingTracer interface
// carries every record kind the batcher and the router emit, so
// emitters stay decoupled from the recorder. trace.Recorder implements
// it; a nil tracer costs one branch per event.
//
// The record types live in the trace package (which must sit below
// serve in the import graph); these aliases keep serve's tracer API
// self-contained for emitters and implementers.

// IterationRecord is one scheduler submission of the continuous
// batcher (see trace.IterationRecord).
type IterationRecord = trace.IterationRecord

// SeqEventKind labels one point of a sequence's serving lifecycle.
type SeqEventKind = trace.SeqEventKind

// Lifecycle kinds (see trace.SeqEventKind's constants for semantics).
const (
	SeqArrive       = trace.SeqArrive
	SeqPrefillStart = trace.SeqPrefillStart
	SeqPrefillEnd   = trace.SeqPrefillEnd
	SeqJoin         = trace.SeqJoin
	SeqPreempt      = trace.SeqPreempt
	SeqFinish       = trace.SeqFinish
)

// SeqEvent is one lifecycle instant of one sequence (see
// trace.SeqEvent).
type SeqEvent = trace.SeqEvent

// RouterDecision is one routing outcome of the fleet router (see
// trace.RouterDecision).
type RouterDecision = trace.RouterDecision

// KVHandoff is one prefill→decode cache transfer of a disaggregated
// cluster (see trace.KVHandoff).
type KVHandoff = trace.KVHandoff

// ServingTracer observes continuous-batcher iterations and sequence
// lifecycles, and the fleet router's decisions. The paged KV allocator
// below serve is traced on its own, through kvcache.Tracer.
type ServingTracer interface {
	Iteration(IterationRecord)
	SeqEvent(SeqEvent)
	RouterDecision(RouterDecision)
}

// BlockStats is the optional allocator view the batcher samples for
// iteration-record KV gauges (implemented by kvcache.PagedManager).
type BlockStats interface {
	TotalBlocks() int
	FreeBlocks() int
}
