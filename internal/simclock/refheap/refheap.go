// Package refheap is the frozen binary-heap reference implementation of
// the simclock engine — the plain container/heap event queue the
// simulator first shipped with.
//
// It exists for the differential property test in internal/simclock,
// which drives this engine and simclock's run-plus-heap engine side by side
// through randomized schedule/cancel/re-arm/Reserve+AtSeq/RunUntil
// workloads and asserts identical fire order and clock values — the strongest form of
// the "byte-identical semantics" guarantee.
//
// Do not optimize this package: its value is that it stays the simple,
// obviously correct total order on (time, sequence).
package refheap

import (
	"container/heap"
	"fmt"
	"time"
)

// Time mirrors simclock.Time.
type Time = time.Duration

// Event mirrors simclock.Event.
type Event func(now Time)

// item is a heap entry. seq breaks ties between events at the same
// instant; gen invalidates stale Handles to recycled items.
type item struct {
	at        Time
	seq       uint64
	fn        Event
	gen       uint64
	cancelled bool
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	eng *Engine
	it  *item
	gen uint64
}

// Cancel prevents the event from firing; no-op on fired or already
// cancelled events.
func (h Handle) Cancel() {
	if h.it == nil || h.it.gen != h.gen || h.it.cancelled {
		return
	}
	h.it.cancelled = true
	h.it.fn = nil
	if h.eng != nil {
		h.eng.cancelled++
		h.eng.maybeCompact()
	}
}

type eventHeap []*item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*item)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

const compactMinLen = 64

// Engine is the reference discrete-event engine. Use New.
type Engine struct {
	now Time
	seq uint64
	// curSeq is one past the seq of the last fired event: with now, the
	// clock's position in the (time, seq) order.
	curSeq    uint64
	events    eventHeap
	fired     uint64
	cancelled int
	free      []*item
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine {
	e := &Engine{}
	heap.Init(&e.events)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live (non-cancelled) events queued.
func (e *Engine) Pending() int { return e.events.Len() - e.cancelled }

// PendingRaw returns queued entries including cancelled placeholders.
func (e *Engine) PendingRaw() int { return e.events.Len() }

func (e *Engine) newItem(at Time, seq uint64, fn Event) *item {
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		it = &item{}
	}
	it.at = at
	it.seq = seq
	it.fn = fn
	it.cancelled = false
	return it
}

func (e *Engine) recycle(it *item) {
	it.gen++
	it.fn = nil
	e.free = append(e.free, it)
}

func (e *Engine) maybeCompact() {
	if len(e.events) < compactMinLen || e.cancelled*2 <= len(e.events) {
		return
	}
	live := e.events[:0]
	for _, it := range e.events {
		if it.cancelled {
			e.recycle(it)
		} else {
			live = append(live, it)
		}
	}
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = live
	e.cancelled = 0
	heap.Init(&e.events)
}

// At schedules fn at the absolute virtual time at; the past panics.
func (e *Engine) At(at Time, fn Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("refheap: schedule at %v before now %v", at, e.now))
	}
	it := e.newItem(at, e.Reserve(), fn)
	heap.Push(&e.events, it)
	return Handle{eng: e, it: it, gen: it.gen}
}

// Reserve takes the next sequence number without scheduling anything.
func (e *Engine) Reserve() uint64 {
	s := e.seq
	e.seq++
	return s
}

// Passed reports whether the clock has moved beyond position (at, seq).
func (e *Engine) Passed(at Time, seq uint64) bool {
	if at != e.now {
		return at < e.now
	}
	return seq < e.curSeq
}

// AtSeq schedules fn at position (at, seq), where seq came from
// Reserve; an unreserved or passed position panics.
func (e *Engine) AtSeq(at Time, seq uint64, fn Event) Handle {
	if seq >= e.seq || e.Passed(at, seq) {
		panic(fmt.Sprintf("refheap: schedule at (%v, seq %d), unreserved or passed (now %v)", at, seq, e.now))
	}
	it := e.newItem(at, seq, fn)
	heap.Push(&e.events, it)
	return Handle{eng: e, it: it, gen: it.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d time.Duration, fn Event) Handle {
	return e.At(e.now+d, fn)
}

// Step fires the earliest pending event.
func (e *Engine) Step() bool {
	for e.events.Len() > 0 {
		it := heap.Pop(&e.events).(*item)
		if it.cancelled {
			e.cancelled--
			e.recycle(it)
			continue
		}
		e.now, e.curSeq = it.at, it.seq+1
		e.fired++
		fn := it.fn
		e.recycle(it)
		fn(e.now)
		return true
	}
	return false
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline.
func (e *Engine) RunUntil(deadline Time) {
	for {
		next, ok := e.peek()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if e.now <= deadline {
		e.now, e.curSeq = deadline, e.seq
	}
}

// RunFor is RunUntil(Now()+d).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

func (e *Engine) peek() (Time, bool) {
	for e.events.Len() > 0 {
		it := e.events[0]
		if it.cancelled {
			heap.Pop(&e.events)
			e.cancelled--
			e.recycle(it)
			continue
		}
		return it.at, true
	}
	return 0, false
}

// NextEventAt reports the timestamp of the next pending event, if any.
func (e *Engine) NextEventAt() (Time, bool) { return e.peek() }
