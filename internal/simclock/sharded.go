package simclock

import (
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
// Determinism does not depend on the worker count, nor on where the
// window boundaries fall: each shard is single-goroutine deterministic
// within a window, and a cross-post takes its place in the destination's
// (time, seq) order from (timestamp, source shard, the source's running
// post count) alone, ahead of every local event at its instant, however
// late the barrier that delivers it. The unit tests pin per-shard firing
// logs byte-equal across worker counts and lookaheads.
//
// A shard may defer a computation (Engine.Defer) across windows: its run
// bound is the executor's deadline, not the window's horizon. A post
// delivered into the deferred span leaves it deferred, and catches it up
// when it fires if it touches it, exactly as in a run that never
// deferred it (see docs/SIMULATOR.md). The computation's skipped events
// post nothing, so a shard's next event time is its queue's.
//
// A lookahead of zero admits no safe window, so NewSharded rejects it:
// partitions coupled at zero latency belong in the same shard. That is
// why each simulated node is one shard (docs/PERF.md), and why the
// cluster's lookahead, the network latency, must be positive
// (hw.NetworkSpec.Validate).
type Sharded struct {
	shards    []*Engine
	lookahead Time
	pool      *runner.Pool

	// outbox[src] buffers cross-posts made by shard src during the
	// current window, and posted[src] counts every cross-post src made.
	// Only shard src's goroutine touches them, so the window needs no
	// locking; the barrier drains all outboxes single-threaded.
	outbox [][]post
	posted []uint64

	// next[i] is shard i's earliest pending event time, or never. Every
	// runWindows reads it afresh from the shards, since callers may
	// schedule on a shard between runs; after that, the window that runs
	// shard i leaves it exact, and the barrier lowers it for shards that
	// receive posts, so a window peeks no shard.
	next []Time
	// active lists the shards the current window runs: those with an
	// event below the horizon.
	active []int

	// horizon bounds the current window and stop is the run's deadline
	// (never under Run); window is the job that runs active shard j up to
	// the horizon, built once so a window allocates nothing.
	horizon, stop Time
	window        func(j int)

	stats ShardStats
}

// post is one buffered cross-shard event; key is its place among the
// destination's events at instant at (postKey).
type post struct {
	dst int
	at  Time
	key uint64
	fn  Event
}

// postBits is the width of a post key's running count; the source shard
// takes the bits above it, below localKey's.
const postBits = 40

// postKey is the tie-break key of source src's n-th cross-post: at one
// instant, posts order by source, then by post count, and all of them
// ahead of the destination's local events.
func postKey(src int, n uint64) uint64 { return uint64(src)<<postBits | n }

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
	if n > localKey>>postBits {
		panic(fmt.Sprintf("simclock: NewSharded supports at most %d shards", localKey>>postBits))
	}
	if workers > n {
		workers = n
	}
	s := &Sharded{
		shards:    make([]*Engine, n),
		lookahead: lookahead,
		pool:      runner.NewPool(workers),
		outbox:    make([][]post, n),
		posted:    make([]uint64, n),
		next:      make([]Time, n),
	}
	for i := range s.shards {
		s.shards[i] = New()
		s.shards[i].shard = true
	}
	s.window = func(j int) {
		i := s.active[j]
		s.next[i] = s.shards[i].runBefore(s.horizon, s.stop)
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
// the barrier; posts made between windows (before Run / RunUntil) are
// buffered the same way and delivered at the next window's
// barrier-equivalent startup drain. Either way the post fires at
// (at, src, src's post count), ahead of dst's local events at at.
func (s *Sharded) Post(src, dst int, at Time, fn Event) {
	if src == dst {
		s.shards[dst].At(at, fn)
		return
	}
	if min := s.shards[src].Now() + s.lookahead; at < min {
		panic(fmt.Sprintf("simclock: cross-shard post at %v violates lookahead (shard %d now %v + lookahead %v = %v)",
			at, src, s.shards[src].Now(), s.lookahead, min))
	}
	s.outbox[src] = append(s.outbox[src], post{dst: dst, at: at, key: postKey(src, s.posted[src]), fn: fn})
	s.posted[src]++
}

// deliver drains every outbox into the destination engines, lowering
// each destination's next event time to its earliest post. A post keys
// its own place, so the delivery order does not matter.
func (s *Sharded) deliver() {
	for src, ob := range s.outbox {
		for _, p := range ob {
			s.shards[p.dst].post(p.at, p.key, p.fn)
			s.next[p.dst] = min(s.next[p.dst], p.at)
		}
		s.stats.Posts += uint64(len(ob))
		clear(ob) // drop the delivered events' references
		s.outbox[src] = ob[:0]
	}
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
// otherwise only events at or below *deadline fire, and a shard's
// deferred computation that would end beyond it is caught up first.
func (s *Sharded) runWindows(deadline *Time) {
	s.stop = never
	if deadline != nil {
		s.stop = *deadline
	}
	for i, e := range s.shards {
		if s.stop < e.deferEnd {
			e.catchUp()
		}
		s.next[i] = e.peek()
	}
	for {
		s.deliver()
		next := slices.Min(s.next)
		if next == never || next > s.stop {
			return
		}
		s.horizon = next + s.lookahead
		if s.stop != never && s.horizon > s.stop+1 {
			// Cap the window so nothing beyond the deadline fires; +1
			// keeps the deadline itself inside (RunBefore is exclusive).
			s.horizon = s.stop + 1
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
