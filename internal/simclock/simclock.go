// Package simclock provides the discrete-event simulation engine on which
// the whole multi-GPU node model is built.
//
// The engine keeps a virtual clock and a priority queue of timed events.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking), which makes every simulation fully
// deterministic: two runs with the same inputs produce identical traces.
//
// An Engine is single-goroutine state: it shares nothing with other
// Engine instances, so independent simulations can run concurrently on
// separate goroutines (one engine per goroutine) without synchronization.
//
// # Queue design
//
// Events live in two structures (see docs/PERF.md for the design and its
// measurements):
//
//   - the run, a slice sorted by (time, key) and consumed from a head
//     index: an event whose place is at or after the run's last entry is
//     appended to it in O(1). Arrivals scheduled up front in time order,
//     and chains that each re-arm one step ahead, all land here;
//   - a 4-ary min-heap on (time, key) holding every other event, the
//     out-of-order set.
//
// The next event is the earlier of the two heads, so the firing order is
// the total order on (time, key) whichever structure holds an event. The
// differential test in this package drives this engine and the plain
// reference heap (refheap) side by side through randomized workloads and
// asserts identical behaviour.
//
// Hot-path notes: fired and cancelled entries are recycled through a
// per-engine free list, so steady-state stepping allocates nothing;
// cancellation is O(1) (a tombstone flag), and both structures are
// compacted when tombstones outnumber live events.
//
// # Reserved positions
//
// Reserve takes a place in the (time, seq) order without scheduling an
// event; Passed reports whether the clock has moved beyond a place, and
// AtSeq arms an event there while it has not. A caller that only
// sometimes needs an event can skip it without moving any other event:
// the GPU model arms a command's delivery only once the command heads
// its stream (see docs/PERF.md).
//
// # Deferred computations
//
// Defer lets a caller skip a computation whose outcome it already knows
// and schedule only its end, provided nothing observes the computation
// on the way. The engine keeps that promise for it: the first Touch, or
// the first event scheduled into the skipped span, catches the
// computation up in its own place in the (time, seq) order before the
// call goes on. Iteration replay rests on it (docs/PERF.md).
package simclock

import (
	"fmt"
	"time"
)

// Time is an instant on the virtual clock, expressed as a duration since
// the start of the simulation. Using time.Duration (int64 nanoseconds)
// keeps arithmetic exact; kernel durations in this domain are in the
// microsecond-to-millisecond range, far from overflow.
type Time = time.Duration

// never is the largest Time, standing for "no pending event".
const never = Time(1<<63 - 1)

// localKey marks the tie-break key of an event scheduled on the engine
// itself: the key is the event's sequence number with this bit set. An
// event another shard posts (Sharded.Post) keys with the bit clear, so
// at any instant the posted events fire ahead of every local one, in an
// order fixed by their sources alone.
const localKey = 1 << 63

// Event is a callback scheduled to fire at a virtual instant.
type Event func(now Time)

// item is a queue entry. key breaks ties between events at the same
// instant (see localKey). gen is bumped every time the item returns to
// the free list so stale Handles to a recycled item become no-ops.
type item struct {
	at  Time
	key uint64
	fn  Event
	gen uint64
	// cancelled events stay queued but are skipped when reached; this is
	// cheaper than removal and keeps Cancel O(1). The engine compacts
	// the queue when they pile up.
	cancelled bool
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	eng *Engine
	it  *item
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.it == nil || h.it.gen != h.gen || h.it.cancelled {
		return
	}
	h.it.cancelled = true
	h.it.fn = nil // release the closure immediately
	if h.eng != nil {
		h.eng.cancelled++
		h.eng.maybeCompact()
	}
}

// compactMinLen is the queue size below which compaction is never
// worthwhile (the walk costs more than the memory it reclaims).
const compactMinLen = 64

// Stats are engine-level instrumentation counters (see ligerprof
// -engine-stats). All counters are cumulative over the engine's life.
type Stats struct {
	// Fired is the number of events executed.
	Fired uint64
	// MaxPending is the high-water mark of live queued events.
	MaxPending int
	// Compactions counts tombstone-compaction passes.
	Compactions uint64
	// Resizes and FarPushes are always 0. They counted the calendar
	// queue's bucket-width changes and far-band overflows, and stay only
	// while tools/perf still reads them.
	Resizes   uint64
	FarPushes uint64
}

// Engine is a discrete-event simulation engine. The zero value is not
// ready; use New.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64
	// curKey is one past the key of the last fired event; with now it is
	// the clock's position in the (time, key) order that Passed compares
	// against.
	curKey uint64

	// run[head:] are the queued entries of the run, sorted by (at, key);
	// heap is a 4-ary min-heap on (at, key) of the rest.
	run  []*item
	head int
	heap []*item

	// cancelled counts tombstones still stored in either structure.
	cancelled int
	// free recycles fired/cancelled items; At pops from it before
	// allocating.
	free []*item

	stats Stats

	// shard marks a shard of a Sharded executor (see Shard).
	shard bool
	// stop is the last instant the run in progress fires events at:
	// never under Run, the deadline under RunUntil, the bound less one
	// under RunBefore, and on a shard the executor's deadline (never
	// under Sharded.Run).
	stop Time

	// deferEnd is the end of the span a deferred computation (Defer)
	// would run in, -1 when nothing is deferred: one comparison on the
	// hot paths tells whether a call must catch it up.
	deferEnd Time
	deferred deferral
	// catching is set while a catch-up runs; endFn is the bound
	// endDeferred, made once.
	catching bool
	endFn    Event
}

// deferral is the computation Defer skipped: the event standing for its
// end, its catch-up, the clock's position when it was skipped, and the
// sequence numbers DeferSeqs took for it, from first on.
type deferral struct {
	end     Handle
	done    Event
	catchUp func()
	at      Time
	cur     uint64
	first   uint64
	seqs    uint64
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine {
	return &Engine{stop: never, deferEnd: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far; useful for
// instrumentation and run-away detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live events still queued. Cancelled
// placeholders awaiting compaction are not counted — Pending is the
// number of events that will still fire. A deferred computation is
// caught up first.
func (e *Engine) Pending() int {
	e.Touch()
	return e.stored() - e.cancelled
}

// PendingRaw returns the number of stored queue entries including
// cancelled placeholders not yet compacted away — the engine's physical
// occupancy, which the compaction regression test bounds. A deferred
// computation is caught up first.
func (e *Engine) PendingRaw() int {
	e.Touch()
	return e.stored()
}

// Stats returns the engine's instrumentation counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Fired = e.fired
	return s
}

// stored returns the number of queued entries, tombstones included.
func (e *Engine) stored() int { return len(e.run) - e.head + len(e.heap) }

// newItem takes an item from the free list (or allocates one) and arms it
// at position (at, key).
func (e *Engine) newItem(at Time, key uint64, fn Event) *item {
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		it = &item{}
	}
	it.at = at
	it.key = key
	it.fn = fn
	it.cancelled = false
	return it
}

// recycle returns an item no longer queued to the free list,
// invalidating outstanding Handles to it.
func (e *Engine) recycle(it *item) {
	it.gen++
	it.fn = nil
	e.free = append(e.free, it)
}

// itemAfter is the total order on queue entries: (at, key) ascending.
// key is unique, so this is a strict total order — the firing sequence
// is fully determined no matter which data structure holds the entries.
func itemAfter(a, b *item) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	return a.key > b.key
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past panics: it always indicates a simulator bug, and silently
// clamping would hide causality violations.
func (e *Engine) At(at Time, fn Event) Handle {
	if at <= e.deferEnd {
		e.catchUp()
	}
	if at < e.now {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, e.now))
	}
	return e.push(e.newItem(at, localKey|e.Reserve(), fn))
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d time.Duration, fn Event) Handle {
	return e.At(e.now+d, fn)
}

// Reserve takes the next sequence number without scheduling anything.
// A caller that may not need an event at all reserves its place in the
// (time, seq) order where At would have scheduled it, and arms it later
// with AtSeq only if Passed says it is still due: every event it does
// arm then fires exactly where At would have fired it.
func (e *Engine) Reserve() uint64 {
	e.Touch()
	s := e.seq
	e.seq++
	return s
}

// ReserveN takes the next n sequence numbers without scheduling anything
// and returns the first: a block a later InReserved draws from.
func (e *Engine) ReserveN(n int) uint64 {
	e.Touch()
	s := e.seq
	e.seq += uint64(n)
	return s
}

// Seq returns the sequence number the next At or Reserve takes.
func (e *Engine) Seq() uint64 { return e.seq }

// InReserved runs fn with the sequence numbers fn schedules and reserves
// drawn from the block of n that ReserveN returned first from. Every
// event fn schedules then takes the place in the (time, seq) order it
// would have taken had fn run when the block was reserved, ahead of
// whatever was scheduled since. The clock must not have moved since the
// reservation, and fn must take at most n sequence numbers. A deferred
// computation is caught up first, outside the block.
func (e *Engine) InReserved(first uint64, n int, fn func()) {
	e.Touch()
	if e.Passed(e.now, first) {
		panic(fmt.Sprintf("simclock: reserved block at seq %d, which the clock has passed", first))
	}
	next := e.seq
	e.seq = first
	fn()
	if used := e.seq - first; used > uint64(n) {
		panic(fmt.Sprintf("simclock: %d sequence numbers taken from a reserved block of %d", used, n))
	}
	e.seq = next
}

// Defer skips a computation that would start now and whose every event
// would fire by instant end: it schedules done at end in its place and
// reports true. Nothing may observe the computation before done fires
// other than through a call that catches it up first: a Touch (every
// entry point of the state the computation changes calls one), an At or
// AtSeq at or before end, a Reserve or ReserveN, an InReserved, a query
// of the queue (NextEventAt, Pending, PendingRaw), a run that stops
// before end, or another Defer. A catch-up cancels done, moves the
// clock back to the position Defer was called at, runs catchUp there,
// fires the computation's events that lie before the clock's position,
// and returns the clock there.
//
// The catch-up is exact. An event queued before Defer orders before
// every event catchUp queues at the same instant, as it would had
// catchUp run at Defer; an event scheduled into the span later catches
// up before it takes a sequence number; an event another shard posts
// into the span (Sharded.Post) takes no sequence number, and its place,
// ahead of every local event at its instant, depends on its source
// alone; and every event before the clock's position has fired, so the
// ones the catch-up fires are exactly catchUp's. An event that fires
// inside the span without catching up, posted or not, touched nothing
// the computation touches.
//
// On a shard, the computation must post nothing to another shard before
// end: its skipped events fire only in a catch-up, behind the clock,
// where a post could land in the other shard's past.
//
// Defer reports false, scheduling nothing, when the run in progress
// stops before end (RunUntil, RunBefore, or on a shard the executor's
// deadline: a window only pauses a shard) and inside a catch-up.
func (e *Engine) Defer(end Time, done Event, catchUp func()) bool {
	e.Touch()
	if end > e.stop || e.catching {
		return false
	}
	if e.endFn == nil {
		e.endFn = e.endDeferred
	}
	e.deferred = deferral{end: e.At(end, e.endFn), done: done, catchUp: catchUp, at: e.now, cur: e.curKey}
	e.deferEnd = end
	return true
}

// DeferSeqs is Defer for a computation that would take the next n
// sequence numbers and whose end is an event it schedules: it takes the
// numbers now, and done fires at position (end, seq), where seq is one
// of them, in place of that event. A catch-up gives the numbers back
// before it runs catchUp, which takes them again as it simulates.
func (e *Engine) DeferSeqs(end Time, seq uint64, n int, done Event, catchUp func()) bool {
	e.Touch()
	first := e.seq
	if end > e.stop || e.catching || n < 1 || seq < first || seq >= first+uint64(n) {
		return false
	}
	if e.endFn == nil {
		e.endFn = e.endDeferred
	}
	e.seq += uint64(n)
	e.deferred = deferral{end: e.AtSeq(end, seq, e.endFn), done: done, catchUp: catchUp, at: e.now, cur: e.curKey,
		first: first, seqs: uint64(n)}
	e.deferEnd = end
	return true
}

// Firing returns the sequence number of the event firing now, and false
// when none is or it was posted by another shard.
func (e *Engine) Firing() (uint64, bool) {
	if e.curKey&localKey == 0 {
		return 0, false
	}
	return (e.curKey - 1) &^ localKey, true
}

// Pos returns the position of the event h names, and false when it fired,
// was cancelled, or was posted by another shard.
func (h Handle) Pos() (Time, uint64, bool) {
	if h.it == nil || h.it.gen != h.gen || h.it.cancelled || h.it.key&localKey == 0 {
		return 0, 0, false
	}
	return h.it.at, h.it.key &^ localKey, true
}

// Touch catches up the computation Defer skipped, if there is one.
func (e *Engine) Touch() {
	if e.deferEnd >= 0 {
		e.catchUp()
	}
}

// endDeferred ends a deferral at its end instant: it runs done.
func (e *Engine) endDeferred(now Time) {
	done := e.deferred.done
	e.deferred, e.deferEnd = deferral{}, -1
	done(now)
}

// catchUp runs the deferred computation in its place (see Defer).
func (e *Engine) catchUp() {
	d := e.deferred
	e.deferred, e.deferEnd = deferral{}, -1
	d.end.Cancel()
	if d.seqs > 0 {
		// Nothing took a sequence number since DeferSeqs: every Reserve
		// catches up first.
		e.seq = d.first
	}
	now, cur := e.now, e.curKey
	e.now, e.curKey, e.catching = d.at, d.cur, true
	d.catchUp()
	for {
		it := e.settle()
		if it == nil || it.at > now || it.at == now && it.key >= cur {
			break
		}
		e.fire(it)
	}
	e.now, e.curKey, e.catching = now, cur, false
}

// Shard reports whether e is a shard of a Sharded executor. Other shards
// post events onto a shard at window barriers, so its queue does not
// hold every event that will fire before the next barrier.
func (e *Engine) Shard() bool { return e.shard }

// post queues fn at (at, key), the place of a post from another shard
// (Sharded.Post). A deferred computation whose span holds at stays
// deferred: the post catches it up when it fires, if it touches it.
func (e *Engine) post(at Time, key uint64, fn Event) {
	if e.passed(at, key) {
		// Unreachable under the lookahead contract (the destination fired
		// only below the horizon, and at >= horizon); kept as a hard
		// failure rather than a silent clamp.
		panic(fmt.Sprintf("simclock: cross-shard post at %v arrived in a shard's past (now %v)", at, e.now))
	}
	e.push(e.newItem(at, key, fn))
}

// Passed reports whether the clock has moved beyond position (at, seq),
// that is, whether an event scheduled there would already have fired.
func (e *Engine) Passed(at Time, seq uint64) bool { return e.passed(at, localKey|seq) }

// passed reports whether the clock has moved beyond position (at, key).
func (e *Engine) passed(at Time, key uint64) bool {
	if at != e.now {
		return at < e.now
	}
	return key < e.curKey
}

// AtSeq schedules fn at position (at, seq), where seq came from Reserve.
// Arming a position the clock has passed panics, like scheduling in the
// past, and so does arming a seq that was never reserved.
func (e *Engine) AtSeq(at Time, seq uint64, fn Event) Handle {
	if at <= e.deferEnd {
		e.catchUp()
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("simclock: schedule at unreserved seq %d", seq))
	}
	if e.Passed(at, seq) {
		panic(fmt.Sprintf("simclock: schedule at (%v, seq %d), which the clock has passed (now %v)", at, seq, e.now))
	}
	return e.push(e.newItem(at, localKey|seq, fn))
}

// push queues an armed item and returns its handle: at the run's tail
// when it orders after every entry there, into the heap otherwise.
func (e *Engine) push(it *item) Handle {
	if n := len(e.run); n == e.head || itemAfter(it, e.run[n-1]) {
		e.appendRun(it)
	} else {
		e.heapPush(it)
	}
	if live := e.stored() - e.cancelled; live > e.stats.MaxPending {
		e.stats.MaxPending = live
	}
	return Handle{eng: e, it: it, gen: it.gen}
}

// appendRun appends an item to the run. A full slice whose consumed head
// is at least half of it slides its entries down instead of growing, so
// a run that never drains keeps a bounded footprint.
func (e *Engine) appendRun(it *item) {
	if n := len(e.run); n == cap(e.run) && e.head > 0 && 2*e.head >= n {
		m := copy(e.run, e.run[e.head:])
		clear(e.run[m:])
		e.run, e.head = e.run[:m], 0
	}
	e.run = append(e.run, it)
}

// heapPush adds an item to the heap.
func (e *Engine) heapPush(it *item) {
	h := append(e.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !itemAfter(h[p], it) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	e.heap = h
}

// heapPop removes the heap's minimum.
func (e *Engine) heapPop() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// siftDown places it at heap slot i or below, restoring the heap
// property beneath i.
func (e *Engine) siftDown(i int, it *item) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if itemAfter(h[m], h[j]) {
				m = j
			}
		}
		if !itemAfter(it, h[m]) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = it
}

// settle returns the next live event, the earlier of the run's head and
// the heap's, without taking it (nil when none remain). Cancelled
// entries encountered on the way are reclaimed.
func (e *Engine) settle() *item {
	for {
		var it *item
		if e.head < len(e.run) {
			it = e.run[e.head]
		}
		if len(e.heap) > 0 && (it == nil || itemAfter(it, e.heap[0])) {
			it = e.heap[0]
		}
		if it == nil || !it.cancelled {
			return it
		}
		e.take(it)
		e.cancelled--
		e.recycle(it)
	}
}

// take removes a head entry, the run's or the heap's, from the queue.
func (e *Engine) take(it *item) {
	if e.head == len(e.run) || e.run[e.head] != it {
		e.heapPop()
		return
	}
	e.run[e.head] = nil
	if e.head++; e.head == len(e.run) {
		e.run, e.head = e.run[:0], 0
	}
}

// maybeCompact rebuilds both structures without cancelled placeholders
// once they exceed half the queue. The (at, key) total order is
// untouched by removal, so compaction cannot change the pop sequence of
// live events.
func (e *Engine) maybeCompact() {
	total := e.stored()
	if total < compactMinLen || e.cancelled*2 <= total {
		return
	}
	e.stats.Compactions++
	e.run, e.head = e.dropCancelled(e.run, e.head), 0
	e.heap = e.dropCancelled(e.heap, 0)
	for i := (len(e.heap)+2)/4 - 1; i >= 0; i-- {
		e.siftDown(i, e.heap[i])
	}
	e.cancelled = 0
}

// dropCancelled moves the live entries of s[from:] to the front of s, in
// order, recycles the cancelled ones and clears the slots left behind.
func (e *Engine) dropCancelled(s []*item, from int) []*item {
	live := s[:0]
	for _, it := range s[from:] {
		if it.cancelled {
			e.recycle(it)
		} else {
			live = append(live, it)
		}
	}
	clear(s[len(live):])
	return live
}

// Step fires the earliest pending event. It reports whether an event
// fired (false when the queue is empty).
func (e *Engine) Step() bool {
	it := e.settle()
	if it == nil {
		return false
	}
	e.fire(it)
	return true
}

// fire takes the settled head event off the queue, moves the clock to
// its position and runs it.
func (e *Engine) fire(it *item) {
	e.take(it)
	e.now, e.curKey = it.at, it.key+1
	e.fired++
	fn := it.fn
	e.recycle(it)
	fn(e.now)
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled at exactly the deadline fire.
func (e *Engine) RunUntil(deadline Time) {
	if deadline < e.deferEnd {
		e.catchUp()
	}
	stop := e.stop
	e.stop = min(stop, deadline)
	for {
		it := e.settle()
		if it == nil || it.at > deadline {
			break
		}
		e.fire(it)
	}
	e.stop = stop
	if e.now <= deadline {
		// Everything due by the deadline has fired, so every position
		// reserved so far at or before it has passed.
		e.now, e.curKey = deadline, localKey|e.seq
	}
}

// RunFor is RunUntil(Now()+d).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// RunBefore fires events with timestamps strictly below bound and stops,
// leaving the clock at the last fired event (it does NOT advance the
// idle clock to the bound — the caller owns the bound's meaning). A
// deferred computation that would end at or beyond the bound is caught
// up first.
func (e *Engine) RunBefore(bound Time) { e.runBefore(bound, bound-1) }

// runBefore fires events with timestamps strictly below bound as part of
// a run that stops after instant stop, and returns the time of the next
// pending event where it stopped, or never when none is left. It is the
// primitive the lookahead-sharded executor advances a shard through one
// conservative window with: every event below the horizon is safe to
// fire, the horizon itself is not. The window pauses the shard there,
// it does not observe it, so only a stop before a deferred
// computation's end catches it up.
func (e *Engine) runBefore(bound, stop Time) Time {
	if stop < e.deferEnd {
		e.catchUp()
	}
	saved := e.stop
	e.stop = min(saved, stop)
	next := never
	for {
		it := e.settle()
		if it == nil {
			break
		}
		if it.at >= bound {
			next = it.at
			break
		}
		e.fire(it)
	}
	e.stop = saved
	return next
}

// peek returns the timestamp of the next live event, or never when none
// is left. A deferred computation stays deferred.
func (e *Engine) peek() Time {
	it := e.settle()
	if it == nil {
		return never
	}
	return it.at
}

// NextEventAt reports the timestamp of the next pending event, if any.
// A deferred computation is caught up first.
func (e *Engine) NextEventAt() (Time, bool) {
	e.Touch()
	if at := e.peek(); at != never {
		return at, true
	}
	return 0, false
}
