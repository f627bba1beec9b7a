package kvcache

import "liger/internal/simclock"

// KVEventKind labels one paged-allocator transition.
type KVEventKind string

const (
	// KVAdmit: a sequence's prompt blocks were allocated.
	KVAdmit KVEventKind = "admit"
	// KVExtend: a decode token forced a fresh block allocation (extends
	// that fit in the tail block are not traced — they change no
	// accounting).
	KVExtend KVEventKind = "extend"
	// KVRelease: a finished sequence's block table was freed.
	KVRelease KVEventKind = "release"
	// KVPreempt: the lowest-priority sequence was evicted; Tokens is its
	// cached length, the recompute obligation its owner pays on resume.
	KVPreempt KVEventKind = "preempt"
)

// KVEvent is one block-accounting transition of a PagedManager. Delta
// is the block-count change (positive allocations, negative frees);
// Used/Free sample the pool after the transition; Pressure reports
// free blocks under the eviction watermark after it.
type KVEvent struct {
	Kind  KVEventKind
	Seq   int
	Delta int
	Used  int
	Free  int
	// Tokens is the sequence's cached length at the transition: prompt
	// length for admit, grown length for extend, freed length for
	// release, and the recompute obligation for preempt.
	Tokens   int
	Pressure bool
	At       simclock.Time
}

// Tracer observes paged-allocator transitions. trace.Recorder
// implements it; wire with PagedManager.SetTracer.
type Tracer interface {
	KVEvent(KVEvent)
}

// SetTracer installs an allocation tracer. The manager has no clock of
// its own, so the caller supplies the event-time source (typically
// simclock.Engine.Now of the engine driving the batcher); a nil now
// stamps every event at 0.
func (m *PagedManager) SetTracer(t Tracer, now func() simclock.Time) {
	m.tracer = t
	m.now = now
}

// PeakUsedBlocks returns the high-water mark of allocated blocks over
// the manager's lifetime.
func (m *PagedManager) PeakUsedBlocks() int { return m.peakUsed }

// emit records one transition to the tracer, sampling pool state after
// the transition, and maintains the allocation high-water mark.
func (m *PagedManager) emit(kind KVEventKind, seq, delta, tokens int) {
	free := m.FreeBlocks()
	if used := m.totalBlocks - free; used > m.peakUsed {
		m.peakUsed = used
	}
	if m.tracer == nil {
		return
	}
	var at simclock.Time
	if m.now != nil {
		at = m.now()
	}
	m.tracer.KVEvent(KVEvent{
		Kind:     kind,
		Seq:      seq,
		Delta:    delta,
		Used:     m.totalBlocks - free,
		Free:     free,
		Tokens:   tokens,
		Pressure: free < m.watermark,
		At:       at,
	})
}
