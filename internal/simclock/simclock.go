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
// Events live in a two-band calendar queue instead of a binary heap (see
// docs/PERF.md for the full design and its measured throughput):
//
//   - the near band is a ring of fixed-width time buckets covering the
//     window [winStart, winStart+nb·width). Enqueue into a future bucket
//     is an O(1) append; a bucket is sorted once, lazily, when the clock
//     reaches it, so the near-horizon events that dominate kernel
//     scheduling cost O(1) amortized to enqueue and dequeue;
//   - events beyond the window overflow into the far band, a min-heap
//     ordered by (time, seq), and migrate into the ring as the window
//     slides over them.
//
// The firing order is the total order on (time, seq) — exactly the order
// the old heap produced — so the rewrite is semantically invisible: the
// differential test in this package drives both engines side by side
// through randomized workloads and asserts identical behaviour.
//
// Hot-path notes: fired and cancelled entries are recycled through a
// per-engine free list, so steady-state stepping allocates nothing;
// cancellation is O(1) (a tombstone flag), and the queue is compacted
// when tombstones outnumber live events. Bucket width self-tunes: the
// ring widens when events are too sparse for the window and narrows when
// single buckets grow pathological.
//
// # Reserved positions
//
// Reserve takes a place in the (time, seq) order without scheduling an
// event; Passed reports whether the clock has moved beyond a place, and
// AtSeq arms an event there while it has not. A caller that only
// sometimes needs an event can skip it without moving any other event:
// the GPU model arms a command's delivery only once the command heads
// its stream (see docs/PERF.md).
package simclock

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// Time is an instant on the virtual clock, expressed as a duration since
// the start of the simulation. Using time.Duration (int64 nanoseconds)
// keeps arithmetic exact; kernel durations in this domain are in the
// microsecond-to-millisecond range, far from overflow.
type Time = time.Duration

// never is the largest Time, standing for "no pending event".
const never = Time(1<<63 - 1)

// Event is a callback scheduled to fire at a virtual instant.
type Event func(now Time)

// item is a queue entry. seq breaks ties between events at the same
// instant. gen is bumped every time the item returns to the free list so
// stale Handles to a recycled item become no-ops.
type item struct {
	at  Time
	seq uint64
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

// Calendar geometry. The ring has nb buckets; bucket width is 1<<shift
// nanoseconds, self-tuned between minShift and maxShift.
const (
	nbBits = 8
	nb     = 1 << nbBits
	nbMask = nb - 1

	// minShift = 64 ns buckets; maxShift = ~67 ms buckets (window ~17 s).
	minShift  = 6
	maxShift  = 26
	initShift = 12 // ~4.1 µs buckets, window ~1 ms: kernel-scheduling scale

	// sortInline is the bucket size up to which insertion sort beats the
	// general sort.
	sortInline = 24

	// fatBucket triggers a width halving when a single bucket's live
	// population exceeds it (sorted inserts into the current bucket would
	// otherwise degenerate into large memmoves).
	fatBucket = 1024

	// sparseWindow widens the ring at reload when the previous window
	// turned over with this many advances per pop or more.
	sparseWindow = 4
)

// compactMinLen is the queue size below which compaction is never
// worthwhile (the walk costs more than the memory it reclaims).
const compactMinLen = 64

// bucket is one slot of the near-band ring. items[head:] are the entries
// not yet consumed; sorted marks whether that slice is ordered by
// (at, seq). head > 0 implies sorted.
type bucket struct {
	items  []*item
	head   int
	sorted bool
}

// Stats are engine-level instrumentation counters (see ligerprof
// -engine-stats). All counters are cumulative over the engine's life.
type Stats struct {
	// Fired is the number of events executed.
	Fired uint64
	// MaxPending is the high-water mark of live queued events.
	MaxPending int
	// Compactions counts tombstone-compaction passes.
	Compactions uint64
	// Reloads counts window reloads from the far band (the near band
	// drained and the window re-seeded at the next far event).
	Reloads uint64
	// Rebases counts window rebases (an event scheduled before the
	// current window start forced a redistribution).
	Rebases uint64
	// Resizes counts bucket-width changes.
	Resizes uint64
	// FarPushes counts events that overflowed past the window into the
	// far band.
	FarPushes uint64
}

// Engine is a discrete-event simulation engine. The zero value is not
// ready; use New.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64
	// curSeq is one past the seq of the last fired event; with now it is
	// the clock's position in the (time, seq) order that Passed compares
	// against.
	curSeq uint64

	// Near band: ring of nb buckets. buckets[cur] holds events in
	// [winStart, winStart+width); every stored near event e satisfies
	// winStart <= e.at < winStart + nb*width.
	buckets   []bucket
	cur       int
	winStart  Time
	shift     uint
	nearCount int // entries stored in buckets (live + cancelled)
	// occ is the non-empty-bucket bitmap (by ring index), letting the
	// window slide straight to the next populated bucket instead of
	// scanning empties one by one.
	occ [nb / 64]uint64

	// Far band: min-heap on (at, seq) for events at or beyond the window
	// end.
	far []*item

	// cancelled counts tombstones still stored across both bands.
	cancelled int
	// free recycles fired/cancelled items; At pops from it before
	// allocating.
	free []*item
	// scratch is reused by rebase/resize redistribution passes.
	scratch []*item

	// Window-turnover counters driving width self-tuning.
	advances  uint64
	pops      uint64
	maxBucket int

	stats Stats

	// shard marks a shard of a Sharded executor (see Shard).
	shard bool
	// stop is the last instant the run in progress fires events at:
	// never under Run, the deadline under RunUntil, the bound less one
	// under RunBefore.
	stop Time
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine {
	return &Engine{buckets: make([]bucket, nb), shift: initShift, stop: never}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far; useful for
// instrumentation and run-away detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live events still queued. Cancelled
// placeholders awaiting compaction are not counted — Pending is the
// number of events that will still fire.
func (e *Engine) Pending() int { return e.nearCount + len(e.far) - e.cancelled }

// PendingRaw returns the number of stored queue entries including
// cancelled placeholders not yet compacted away — the engine's physical
// occupancy, which the compaction regression test bounds.
func (e *Engine) PendingRaw() int { return e.nearCount + len(e.far) }

// Stats returns the engine's instrumentation counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Fired = e.fired
	return s
}

// width returns the current bucket width.
func (e *Engine) width() Time { return Time(1) << e.shift }

// winEnd returns the first instant beyond the near window.
func (e *Engine) winEnd() Time { return e.winStart + Time(1)<<(e.shift+nbBits) }

// newItem takes an item from the free list (or allocates one) and arms it
// at position (at, seq).
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

// recycle returns an item no longer queued to the free list,
// invalidating outstanding Handles to it.
func (e *Engine) recycle(it *item) {
	it.gen++
	it.fn = nil
	e.free = append(e.free, it)
}

// itemAfter is the total order on queue entries: (at, seq) ascending.
// seq is unique, so this is a strict total order — the firing sequence
// is fully determined no matter which data structure holds the entries.
func itemAfter(a, b *item) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	return a.seq > b.seq
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past panics: it always indicates a simulator bug, and silently
// clamping would hide causality violations.
func (e *Engine) At(at Time, fn Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, e.now))
	}
	return e.push(e.newItem(at, e.Reserve(), fn))
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
	s := e.seq
	e.seq++
	return s
}

// ReserveN takes the next n sequence numbers without scheduling anything
// and returns the first: a block a later InReserved draws from.
func (e *Engine) ReserveN(n int) uint64 {
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
// reservation, and fn must take at most n sequence numbers.
func (e *Engine) InReserved(first uint64, n int, fn func()) {
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

// QuietThrough reports whether nothing fires on the engine up to and
// including instant t: no event is queued at or before t, and the run in
// progress (RunUntil, RunBefore) does not stop before t. A caller that
// steps the engine by hand (Step) may still stop anywhere, and a shard
// (Shard) may yet receive posted events.
func (e *Engine) QuietThrough(t Time) bool {
	if t > e.stop {
		return false
	}
	next, ok := e.peek()
	return !ok || next > t
}

// Shard reports whether e is a shard of a Sharded executor. Other shards
// post events onto a shard at window barriers, so its queue does not
// hold every event that will fire before the next barrier.
func (e *Engine) Shard() bool { return e.shard }

// Passed reports whether the clock has moved beyond position (at, seq),
// that is, whether an event scheduled there would already have fired.
func (e *Engine) Passed(at Time, seq uint64) bool {
	if at != e.now {
		return at < e.now
	}
	return seq < e.curSeq
}

// AtSeq schedules fn at position (at, seq), where seq came from Reserve.
// Arming a position the clock has passed panics, like scheduling in the
// past, and so does arming a seq that was never reserved.
func (e *Engine) AtSeq(at Time, seq uint64, fn Event) Handle {
	if seq >= e.seq {
		panic(fmt.Sprintf("simclock: schedule at unreserved seq %d", seq))
	}
	if e.Passed(at, seq) {
		panic(fmt.Sprintf("simclock: schedule at (%v, seq %d), which the clock has passed (now %v)", at, seq, e.now))
	}
	return e.push(e.newItem(at, seq, fn))
}

// push queues an armed item and returns its handle.
func (e *Engine) push(it *item) Handle {
	e.schedule(it)
	if live := e.nearCount + len(e.far) - e.cancelled; live > e.stats.MaxPending {
		e.stats.MaxPending = live
	}
	return Handle{eng: e, it: it, gen: it.gen}
}

// schedule places an armed item into the correct band. This is the only
// place a width narrowing can trigger: insertNear is also called from
// redistribution loops (pullFar, rebase, resize), where a reentrant
// resize would corrupt the iteration in progress.
func (e *Engine) schedule(it *item) {
	if it.at < e.winStart {
		// The window was slid or reloaded past this instant while the
		// clock is still behind it (an idle peek jumped ahead, then a
		// near-term event arrived). Rebase the window down to cover it.
		e.rebase(it.at)
	}
	idx := uint64(it.at-e.winStart) >> e.shift
	if idx >= nb {
		e.farPush(it)
		e.stats.FarPushes++
		return
	}
	e.insertNear(it, int(idx))
	if e.maxBucket > fatBucket && e.shift > minShift {
		e.resize(e.shift - 2)
	}
}

// insertNear stores an item whose window offset is idx buckets ahead of
// cur. Future buckets take an O(1) append; the current, already-sorted
// bucket takes an ordered insert so consumption stays correct.
func (e *Engine) insertNear(it *item, idx int) {
	b := &e.buckets[(e.cur+idx)&nbMask]
	e.nearCount++
	if len(b.items) == b.head {
		// Empty (or fully consumed) bucket: mark occupancy, append.
		e.setOcc((e.cur + idx) & nbMask)
		if b.head > 0 {
			// Fully consumed sorted bucket: appending one item keeps
			// items[head:] trivially sorted.
			b.items = append(b.items, it)
			return
		}
		b.items = append(b.items, it)
		b.sorted = true // single entry
		return
	}
	if !b.sorted {
		b.items = append(b.items, it)
		return
	}
	// Sorted bucket (the one being consumed, typically). Fast path: the
	// new entry usually has the latest seq, so it lands at the end unless
	// an existing entry orders after it.
	if last := b.items[len(b.items)-1]; !itemAfter(last, it) {
		b.items = append(b.items, it)
	} else {
		lo := b.head
		j := lo + sort.Search(len(b.items)-lo, func(k int) bool {
			return itemAfter(b.items[lo+k], it)
		})
		b.items = append(b.items, nil)
		copy(b.items[j+1:], b.items[j:])
		b.items[j] = it
	}
	if n := len(b.items) - b.head; n > e.maxBucket {
		e.maxBucket = n
	}
}

// setOcc / clearOcc maintain the non-empty-bucket bitmap.
func (e *Engine) setOcc(i int)   { e.occ[i>>6] |= 1 << uint(i&63) }
func (e *Engine) clearOcc(i int) { e.occ[i>>6] &^= 1 << uint(i&63) }

// nextOcc returns the ring distance from cur to the nearest populated
// bucket (0 when buckets[cur] itself is populated). Must only be called
// with nearCount > 0.
func (e *Engine) nextOcc() int {
	for d := 0; d < nb; {
		i := (e.cur + d) & nbMask
		w := e.occ[i>>6] >> uint(i&63)
		if w != 0 {
			return d + bits.TrailingZeros64(w)
		}
		// Skip the rest of this word.
		d += 64 - i&63
	}
	// Unreachable while the occupancy bitmap is consistent with
	// nearCount; fall back to the current bucket.
	return 0
}

// farPush adds an item to the far-band min-heap.
func (e *Engine) farPush(it *item) {
	e.far = append(e.far, it)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemAfter(e.far[p], e.far[i]) {
			break
		}
		e.far[p], e.far[i] = e.far[i], e.far[p]
		i = p
	}
}

// farPop removes and returns the far-band minimum.
func (e *Engine) farPop() *item {
	h := e.far
	it := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.far = h[:n]
	e.farSiftDown(0)
	return it
}

// farSiftDown restores the heap property downward from i.
func (e *Engine) farSiftDown(i int) {
	h := e.far
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && itemAfter(h[l], h[r]) {
			m = r
		}
		if !itemAfter(h[i], h[m]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pullFar migrates far-band events that now fall inside the window.
func (e *Engine) pullFar() {
	end := e.winEnd()
	for len(e.far) > 0 && e.far[0].at < end {
		it := e.farPop()
		e.insertNear(it, int(uint64(it.at-e.winStart)>>e.shift))
	}
}

// sortBucket orders items[head:] by (at, seq). Unsorted buckets always
// have head == 0. Small buckets use insertion sort; larger ones the
// library sort.
func (e *Engine) sortBucket(b *bucket) {
	s := b.items
	if len(s) <= sortInline {
		for i := 1; i < len(s); i++ {
			it := s[i]
			j := i - 1
			for j >= 0 && itemAfter(s[j], it) {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = it
		}
	} else {
		slices.SortFunc(s, func(a, b *item) int {
			if itemAfter(b, a) {
				return -1
			}
			return 1
		})
	}
	b.sorted = true
}

// settle positions the queue so the next live event sits at
// buckets[cur].items[head], sliding the window and migrating the far
// band as needed, and returns that event (nil when none remain).
// Cancelled entries encountered on the way are reclaimed.
func (e *Engine) settle() *item {
	for {
		if e.nearCount == 0 {
			if len(e.far) == 0 {
				return nil
			}
			e.reload()
		}
		if d := e.nextOcc(); d > 0 {
			e.cur = (e.cur + d) & nbMask
			e.winStart += Time(d) << e.shift
			e.advances += uint64(d)
			e.pullFar()
		}
		b := &e.buckets[e.cur]
		for b.head < len(b.items) {
			if !b.sorted {
				e.sortBucket(b)
			}
			it := b.items[b.head]
			if !it.cancelled {
				return it
			}
			b.items[b.head] = nil
			b.head++
			e.nearCount--
			e.cancelled--
			e.recycle(it)
		}
		// Bucket exhausted (everything in it was cancelled): reset it and
		// advance one slot.
		e.resetBucket(e.cur)
		e.cur = (e.cur + 1) & nbMask
		e.winStart += e.width()
		e.advances++
		e.pullFar()
	}
}

// resetBucket clears a consumed bucket for reuse, keeping its capacity.
func (e *Engine) resetBucket(i int) {
	b := &e.buckets[i]
	b.items = b.items[:0]
	b.head = 0
	b.sorted = false
	e.clearOcc(i)
}

// take removes the settled head event from the current bucket.
func (e *Engine) take() *item {
	b := &e.buckets[e.cur]
	it := b.items[b.head]
	b.items[b.head] = nil
	b.head++
	e.nearCount--
	e.pops++
	if b.head == len(b.items) {
		e.resetBucket(e.cur)
	}
	return it
}

// reload re-seeds an empty window at the next far-band event, applying
// width feedback from the window that just turned over: widen when the
// window was mostly empty advances, narrow when a bucket went
// pathological (narrowing is also triggered inline by insertNear).
func (e *Engine) reload() {
	if e.pops > 0 && e.advances > sparseWindow*e.pops && e.shift < maxShift {
		e.shift += 2
		if e.shift > maxShift {
			e.shift = maxShift
		}
		e.stats.Resizes++
	}
	e.advances, e.pops, e.maxBucket = 0, 0, 0
	e.cur = 0
	e.winStart = e.far[0].at
	e.stats.Reloads++
	e.pullFar()
}

// rebase slides the window start down to at (an event arrived behind the
// window while the clock still permits it), redistributing stored near
// events. Rare: it takes an idle window jump followed by a near-term
// schedule to get here.
func (e *Engine) rebase(at Time) {
	e.stats.Rebases++
	e.collectNear()
	e.cur = 0
	e.winStart = at
	tmp := e.scratch
	for i, it := range tmp {
		tmp[i] = nil
		idx := uint64(it.at-at) >> e.shift
		if idx >= nb {
			e.farPush(it)
		} else {
			e.insertNear(it, int(idx))
		}
	}
	e.scratch = tmp[:0]
}

// resize changes the bucket width to 1<<newShift, redistributing the
// near band in place. Correctness does not depend on the width — only
// the cost profile does — so resizing cannot affect firing order.
func (e *Engine) resize(newShift uint) {
	if newShift < minShift {
		newShift = minShift
	} else if newShift > maxShift {
		newShift = maxShift
	}
	if newShift == e.shift {
		return
	}
	e.stats.Resizes++
	e.collectNear()
	e.shift = newShift
	e.cur = 0
	e.maxBucket = 0
	tmp := e.scratch
	for i, it := range tmp {
		tmp[i] = nil
		idx := uint64(it.at-e.winStart) >> e.shift
		if idx >= nb {
			e.farPush(it)
		} else {
			e.insertNear(it, int(idx))
		}
	}
	e.scratch = tmp[:0]
}

// collectNear drains every stored near entry into e.scratch and resets
// the ring. nearCount drops to zero; callers reinsert.
func (e *Engine) collectNear() {
	tmp := e.scratch[:0]
	for i := range e.buckets {
		b := &e.buckets[i]
		for _, it := range b.items[b.head:] {
			tmp = append(tmp, it)
		}
		if len(b.items) > 0 || b.head > 0 {
			e.resetBucket(i)
		}
	}
	e.scratch = tmp
	e.nearCount = 0
}

// maybeCompact rebuilds both bands without cancelled placeholders once
// they exceed half the queue. The (at, seq) total order is untouched by
// removal, so compaction cannot change the pop sequence of live events.
func (e *Engine) maybeCompact() {
	total := e.nearCount + len(e.far)
	if total < compactMinLen || e.cancelled*2 <= total {
		return
	}
	e.stats.Compactions++
	for i := range e.buckets {
		b := &e.buckets[i]
		if b.head == len(b.items) {
			continue
		}
		live := b.items[:0]
		for _, it := range b.items[b.head:] {
			if it.cancelled {
				e.nearCount--
				e.recycle(it)
			} else {
				live = append(live, it)
			}
		}
		for j := len(live); j < len(b.items); j++ {
			b.items[j] = nil
		}
		b.items = live
		b.head = 0
		if len(live) == 0 {
			b.sorted = false
			e.clearOcc(i)
		}
	}
	liveFar := e.far[:0]
	for _, it := range e.far {
		if it.cancelled {
			e.recycle(it)
		} else {
			liveFar = append(liveFar, it)
		}
	}
	for j := len(liveFar); j < len(e.far); j++ {
		e.far[j] = nil
	}
	e.far = liveFar
	for i := len(e.far)/2 - 1; i >= 0; i-- {
		e.farSiftDown(i)
	}
	e.cancelled = 0
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
	e.take()
	e.now, e.curSeq = it.at, it.seq+1
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
		e.now, e.curSeq = deadline, e.seq
	}
}

// RunFor is RunUntil(Now()+d).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// RunBefore fires events with timestamps strictly below bound and stops,
// leaving the clock at the last fired event (it does NOT advance the
// idle clock to the bound — the caller owns the bound's meaning). This
// is the primitive the lookahead-sharded executor uses to advance a
// shard through one conservative window: every event below the horizon
// is safe to fire; the horizon itself is not.
func (e *Engine) RunBefore(bound Time) { e.runBefore(bound) }

// runBefore is RunBefore, returning the time of the next pending event
// where it stopped, or never when none is left.
func (e *Engine) runBefore(bound Time) Time {
	stop := e.stop
	e.stop = min(stop, bound-1)
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
	e.stop = stop
	return next
}

// peek returns the timestamp of the next live event.
func (e *Engine) peek() (Time, bool) {
	it := e.settle()
	if it == nil {
		return 0, false
	}
	return it.at, true
}

// NextEventAt reports the timestamp of the next pending event, if any.
func (e *Engine) NextEventAt() (Time, bool) { return e.peek() }
