package simclock

import (
	"cmp"
	"fmt"
	"slices"

	"liger/internal/runner"
)

// Sharded is a conservative-lookahead parallel executor over a set of
// independent Engines (shards). It implements the classic
// Chandy–Misra–Bryant null-message-free window scheme:
//
//   - each shard owns a disjoint partition of the model's events and may
//     schedule freely within itself at any timestamp >= its own clock;
//   - cross-shard communication goes through Post, which requires the
//     destination timestamp to be at least the source clock plus the
//     lookahead — the minimum latency any physical coupling between the
//     partitions can exhibit (an interconnect hop, a host notification);
//   - execution proceeds in windows: the horizon is the globally
//     earliest pending event plus the lookahead, every shard fires its
//     events strictly below the horizon (in parallel — the lookahead
//     guarantees nothing fired in this window can affect another shard
//     inside it), then a barrier delivers the buffered cross-posts and
//     the next window begins.
//
// Determinism does not depend on the worker count: each shard is
// single-goroutine deterministic within a window, and the barrier sorts
// cross-posts by (timestamp, source shard, post index) before delivery,
// so destination-engine sequence numbers — and therefore FIFO
// tie-breaking — are a pure function of the model. The unit tests pin
// per-shard firing logs byte-equal across worker counts.
//
// A lookahead of zero admits no safe window, so NewSharded rejects it:
// partitions coupled at zero latency belong in the same shard (see
// gpusim.PlanShards, which is exactly the analysis that decides this).
type Sharded struct {
	shards    []*Engine
	lookahead Time
	pool      *runner.Pool

	// outbox[src] buffers cross-posts made by shard src during the
	// current window. Only shard src's goroutine appends to it, so the
	// window needs no locking; the barrier drains all outboxes
	// single-threaded.
	outbox [][]post
	// merged is the barrier's reused buffer of every outbox's posts.
	merged []post

	// next[i] is shard i's earliest pending event time, or never. Every
	// runWindows reads it afresh from the shards, since callers may
	// schedule on a shard between runs; after that, the window that runs
	// shard i leaves it exact, and the barrier lowers it for shards that
	// receive posts, so a window peeks no shard.
	next []Time
	// active lists the shards the current window runs: those with an
	// event below the horizon.
	active []int

	// horizon bounds the current window; window is the job that runs
	// active shard j up to it, built once so a window allocates nothing.
	horizon Time
	window  func(j int)

	stats ShardStats
}

// post is one buffered cross-shard event.
type post struct {
	dst int
	at  Time
	fn  Event
	// src and idx complete the deterministic delivery order (at, src, idx).
	src, idx int
}

// ShardStats instruments the windowed execution.
type ShardStats struct {
	// Windows is the number of conservative windows executed.
	Windows uint64
	// Posts is the number of cross-shard events delivered.
	Posts uint64
	// Stalls counts shard-windows in which a shard had no event below
	// the horizon — it paid the barrier without advancing. High stall
	// ratios mean the partition is imbalanced or the lookahead is small
	// relative to the event density.
	Stalls uint64
}

// NewSharded creates a sharded executor with n shards and the given
// lookahead (> 0). workers bounds the goroutines used per window;
// workers <= 1 executes shards serially (still windowed, still the same
// event order — the tests compare serial and parallel logs bytewise).
func NewSharded(n int, lookahead Time, workers int) *Sharded {
	if n <= 0 {
		panic("simclock: NewSharded needs at least one shard")
	}
	if lookahead <= 0 {
		panic("simclock: NewSharded needs a positive lookahead; zero-latency couplings belong in one shard")
	}
	if workers > n {
		workers = n
	}
	s := &Sharded{
		shards:    make([]*Engine, n),
		lookahead: lookahead,
		pool:      runner.NewPool(workers),
		outbox:    make([][]post, n),
		next:      make([]Time, n),
	}
	for i := range s.shards {
		s.shards[i] = New()
		s.shards[i].shard = true
	}
	s.window = func(j int) {
		i := s.active[j]
		s.next[i] = s.shards[i].runBefore(s.horizon)
	}
	return s
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns shard i's engine. Scheduling directly on it is allowed
// from that shard's own events (or before Run starts); cross-shard
// scheduling must go through Post.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// Lookahead returns the conservative window bound.
func (s *Sharded) Lookahead() Time { return s.lookahead }

// Stats returns the windowed-execution counters.
func (s *Sharded) Stats() ShardStats { return s.stats }

// Close releases the worker pool. The Sharded must not be run after.
func (s *Sharded) Close() { s.pool.Close() }

// Post schedules fn at time at on shard dst, from shard src. The
// lookahead contract is enforced: at must be at least src's current
// clock plus the lookahead. Same-shard posts (src == dst) are ordinary
// schedules with no lookahead requirement.
//
// Posts made while a window is executing are buffered and delivered at
// the barrier in (at, src, index) order; posts made between windows
// (before Run / RunUntil) are buffered the same way and delivered at the
// next window's barrier-equivalent startup drain.
func (s *Sharded) Post(src, dst int, at Time, fn Event) {
	if src == dst {
		s.shards[dst].At(at, fn)
		return
	}
	if min := s.shards[src].Now() + s.lookahead; at < min {
		panic(fmt.Sprintf("simclock: cross-shard post at %v violates lookahead (shard %d now %v + lookahead %v = %v)",
			at, src, s.shards[src].Now(), s.lookahead, min))
	}
	ob := s.outbox[src]
	s.outbox[src] = append(ob, post{dst: dst, at: at, fn: fn, src: src, idx: len(ob)})
}

// deliver drains every outbox into the destination engines in the
// deterministic (at, src, idx) order, lowering each destination's next
// event time to its earliest post, and returns the number delivered.
func (s *Sharded) deliver() int {
	total := 0
	for _, ob := range s.outbox {
		total += len(ob)
	}
	if total == 0 {
		return 0
	}
	all := s.merged[:0]
	for i, ob := range s.outbox {
		all = append(all, ob...)
		s.outbox[i] = ob[:0]
	}
	slices.SortFunc(all, comparePosts)
	for _, p := range all {
		dst := s.shards[p.dst]
		at := p.at
		if at < dst.Now() {
			// Unreachable under the lookahead contract (the destination
			// fired only below the horizon, and at >= horizon); kept as a
			// hard failure rather than a silent clamp.
			panic(fmt.Sprintf("simclock: cross-shard post at %v arrived in shard %d's past (now %v)", at, p.dst, dst.Now()))
		}
		dst.At(at, p.fn)
		s.next[p.dst] = min(s.next[p.dst], at)
	}
	clear(all) // drop the delivered events' references
	s.merged = all[:0]
	s.stats.Posts += uint64(total)
	return total
}

// comparePosts orders posts by (at, src, idx), a key unique to each post.
func comparePosts(a, b post) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.src != b.src {
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.idx, b.idx)
}

// Run executes windows until no shard has pending events and no posts
// are buffered.
func (s *Sharded) Run() { s.runWindows(nil) }

// RunUntil executes windows until every event with a timestamp <= the
// deadline has fired, then advances every shard's clock to the deadline.
func (s *Sharded) RunUntil(deadline Time) {
	s.runWindows(&deadline)
	for _, e := range s.shards {
		e.RunUntil(deadline) // drains nothing; advances idle clocks
	}
}

// runWindows is the window loop. A nil deadline runs to exhaustion;
// otherwise only events at or below *deadline fire.
func (s *Sharded) runWindows(deadline *Time) {
	for i, e := range s.shards {
		s.next[i] = never
		if at, ok := e.NextEventAt(); ok {
			s.next[i] = at
		}
	}
	for {
		s.deliver()
		next := slices.Min(s.next)
		if next == never {
			return
		}
		if deadline != nil && next > *deadline {
			return
		}
		s.horizon = next + s.lookahead
		if deadline != nil && s.horizon > *deadline+1 {
			// Cap the window so nothing beyond the deadline fires; +1
			// keeps the deadline itself inside (RunBefore is exclusive).
			s.horizon = *deadline + 1
		}
		// A shard with an event below the horizon fires it; every other
		// shard stalls this window and is not run.
		s.active = s.active[:0]
		for i, at := range s.next {
			if at < s.horizon {
				s.active = append(s.active, i)
			}
		}
		s.stats.Windows++
		s.stats.Stalls += uint64(len(s.shards) - len(s.active))
		s.pool.Run(len(s.active), s.window)
	}
}
