package simclock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// ringModel is a synthetic logical-process graph for exercising the
// sharded executor: every shard runs a chain of local events and passes
// tokens around the ring, each hop exactly at the lookahead bound (the
// hardest legal case). All state is per-shard, mutated only by that
// shard's events, matching the executor's isolation contract.
type ringModel struct {
	s         *Sharded
	lookahead Time
	logs      [][]firing // per-shard (token id, now) log
	hops      int        // remaining hops per token when it arrives
}

func newRingModel(shards, workers int, lookahead Time) *ringModel {
	m := &ringModel{
		s:         NewSharded(shards, lookahead, workers),
		lookahead: lookahead,
		logs:      make([][]firing, shards),
		hops:      40,
	}
	for i := 0; i < shards; i++ {
		i := i
		// Each shard starts several tokens at staggered, colliding
		// instants (same-instant cross-shard arrivals stress the
		// deterministic delivery order).
		for t := 0; t < 3; t++ {
			id := i*100 + t
			hops := m.hops
			m.s.Shard(i).At(Time(t)*time.Microsecond, m.tokenFn(i, id, hops))
		}
	}
	return m
}

// tokenFn returns the event for one arrival of token id at shard i.
func (m *ringModel) tokenFn(i, id, hops int) Event {
	return func(now Time) {
		m.logs[i] = append(m.logs[i], firing{id: id, now: now})
		// A burst of local work before forwarding: each local event
		// lands inside the shard's own near future, no lookahead needed.
		for k := 1; k <= 3; k++ {
			m.s.Shard(i).At(now+Time(k)*100*time.Nanosecond, func(n2 Time) {
				m.logs[i] = append(m.logs[i], firing{id: -id, now: n2})
			})
		}
		if hops == 0 {
			return
		}
		next := (i + 1) % m.s.Shards()
		// Forward exactly at the lookahead bound — the tightest legal post.
		m.s.Post(i, next, now+m.lookahead, m.tokenFn(next, id, hops-1))
	}
}

func (m *ringModel) run() [][]firing {
	m.s.Run()
	m.s.Close()
	return m.logs
}

// TestShardedDeterministicAcrossWorkers pins the executor's core
// guarantee: per-shard firing logs are byte-for-byte identical no matter
// how many workers execute the windows.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	const shards = 4
	la := 2 * time.Microsecond
	ref := newRingModel(shards, 1, la).run()
	total := 0
	for _, log := range ref {
		total += len(log)
	}
	if total == 0 {
		t.Fatal("reference run fired no events")
	}
	for _, workers := range []int{2, 4, 8} {
		got := newRingModel(shards, workers, la).run()
		for i := range ref {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("workers=%d shard %d fired %d events, want %d", workers, i, len(got[i]), len(ref[i]))
			}
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d shard %d firing %d = %+v, want %+v", workers, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestShardedLookaheadViolationPanics pins the contract enforcement: a
// cross-shard post closer than the lookahead is a model bug and must
// fail loudly, not corrupt causality.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	s := NewSharded(2, time.Microsecond, 1)
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("sub-lookahead cross-shard post did not panic")
		}
	}()
	s.Post(0, 1, 500*time.Nanosecond, func(Time) {})
}

// TestShardedSameShardPostUnrestricted: src == dst posts are ordinary
// schedules, allowed at any time >= the shard's clock.
func TestShardedSameShardPostUnrestricted(t *testing.T) {
	s := NewSharded(2, time.Millisecond, 1)
	defer s.Close()
	fired := false
	s.Post(0, 0, time.Nanosecond, func(Time) { fired = true })
	s.Run()
	if !fired {
		t.Fatal("same-shard post did not fire")
	}
}

// TestShardedRunUntil checks the deadline semantics match the
// single-engine RunUntil: events at the deadline fire, later ones do
// not, and every shard's clock ends at the deadline.
func TestShardedRunUntil(t *testing.T) {
	s := NewSharded(3, 10*time.Microsecond, 2)
	defer s.Close()
	var fired []int
	for i := 0; i < 3; i++ {
		i := i
		s.Shard(i).At(Time(i+1)*time.Millisecond, func(Time) { fired = append(fired, i) })
	}
	s.RunUntil(2 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by the deadline, want 2 (deadline inclusive)", len(fired))
	}
	for i := 0; i < 3; i++ {
		if now := s.Shard(i).Now(); now != 2*time.Millisecond {
			t.Fatalf("shard %d clock = %v after RunUntil, want 2ms", i, now)
		}
	}
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

// TestShardedCrossPostTieOrder pins the order of same-instant
// cross-posts from different sources: (at, src, the source's post
// count).
func TestShardedCrossPostTieOrder(t *testing.T) {
	s := NewSharded(3, time.Microsecond, 2)
	defer s.Close()
	var got []int
	at := 5 * time.Microsecond
	// Shards 1 and 2 each post two events to shard 0 at the same instant.
	for src := 2; src >= 1; src-- {
		src := src
		for k := 0; k < 2; k++ {
			k := k
			s.Post(src, 0, at, func(Time) { got = append(got, src*10+k) })
		}
	}
	s.Run()
	want := []int{10, 11, 20, 21} // src 1 before src 2, posts in index order
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("same-instant cross-posts delivered as %v, want %v", got, want)
		}
	}
}

// TestShardedPostOrderIgnoresBarriers: where the window boundaries fall
// does not decide the order of same-instant events on a shard. The same
// model runs under a short lookahead, which delivers each post at the
// barrier right after it, and a long one, which runs the posting and
// scheduling events in one window and delivers every post at one
// barrier. Both fire a post ahead of a local event at its instant,
// though the local event was scheduled after the post under the short
// lookahead and before it under the long one; and both fire two sources'
// posts to one instant in source order, though the short lookahead
// delivers the higher source's post first.
func TestShardedPostOrderIgnoresBarriers(t *testing.T) {
	us := Time(time.Microsecond)
	run := func(lookahead Time, workers int) string {
		s := NewSharded(3, lookahead, workers)
		defer s.Close()
		var log strings.Builder
		fire := func(what string) Event {
			return func(now Time) { fmt.Fprintf(&log, "%v %s\n", now, what) }
		}
		at := 100 * us
		s.Shard(1).At(10*us, func(Time) { s.Post(1, 0, at, fire("post from 1")) })
		s.Shard(0).At(20*us, func(Time) { s.Shard(0).At(at, fire("local")) })
		s.Shard(2).At(30*us, func(Time) { s.Post(2, 0, at+1, fire("post from 2")) })
		s.Shard(1).At(40*us, func(Time) { s.Post(1, 0, at+1, fire("second post from 1")) })
		s.Run()
		return log.String()
	}
	want := "100µs post from 1\n100µs local\n100.001µs second post from 1\n100.001µs post from 2\n"
	for _, la := range []Time{5 * us, 50 * us} {
		for _, workers := range []int{1, 3} {
			if got := run(la, workers); got != want {
				t.Errorf("lookahead %v, %d workers: shard 0 fired\n%swant\n%s", la, workers, got, want)
			}
		}
	}
}

// TestShardedStats sanity-checks the instrumentation counters.
func TestShardedStats(t *testing.T) {
	m := newRingModel(4, 2, 2*time.Microsecond)
	m.s.Run()
	st := m.s.Stats()
	m.s.Close()
	if st.Windows == 0 {
		t.Fatal("no windows executed")
	}
	if st.Posts == 0 {
		t.Fatal("no cross-posts delivered")
	}
	// The staggered ring leaves most shards idle in most windows on this
	// workload; the counter just has to be consistent.
	if st.Stalls > st.Windows*4 {
		t.Fatalf("stalls %d exceed windows x shards %d", st.Stalls, st.Windows*4)
	}
}

// TestShardedZeroLookaheadRejected pins the degenerate case: zero
// lookahead cannot be windowed. Callers validate their lookahead first
// (the cluster's is hw.NetworkSpec's positive latency).
func TestShardedZeroLookaheadRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded accepted a zero lookahead")
		}
	}()
	NewSharded(2, 0, 1)
}

// TestShardedWindowAllocatesNothing pins the window loop's steady state
// at zero allocations, serial and parallel: the window job, the
// outboxes and the pool's round are all reused.
func TestShardedWindowAllocatesNothing(t *testing.T) {
	la := time.Microsecond
	for _, workers := range []int{1, 2} {
		s := NewSharded(2, la, workers)
		var tick [2]Event
		arrived := func(Time) {}
		for i := range tick {
			i := i
			// Each shard fires every lookahead and posts across at the
			// bound, so every window both runs events and delivers posts.
			tick[i] = func(now Time) {
				s.Shard(i).At(now+la, tick[i])
				s.Post(i, 1-i, now+la, arrived)
			}
			s.Shard(i).At(0, tick[i])
		}
		windows := func() { s.RunUntil(s.Shard(0).Now() + 4*la) }
		for k := 0; k < 2000; k++ {
			windows() // fill the queue's slices, the pools and the buffers
		}
		before := s.Stats()
		if a := testing.AllocsPerRun(100, windows); a != 0 {
			t.Errorf("workers=%d: %v allocations per 4 windows, want 0", workers, a)
		}
		if after := s.Stats(); after.Windows == before.Windows || after.Posts == before.Posts {
			t.Fatalf("workers=%d: the measured calls ran %d windows and %d posts", workers,
				after.Windows-before.Windows, after.Posts-before.Posts)
		}
		s.Close()
	}
}

// peekAllWindows is the window loop without cached next-event times: it
// peeks every shard for the horizon, runs every shard, and counts a stall
// for each shard that fired nothing. A nil deadline runs to exhaustion.
func peekAllWindows(s *Sharded, deadline *Time) {
	for {
		s.deliver()
		var next Time
		found := false
		for _, e := range s.shards {
			if at, ok := e.NextEventAt(); ok && (!found || at < next) {
				next, found = at, true
			}
		}
		if !found || deadline != nil && next > *deadline {
			return
		}
		s.horizon = next + s.lookahead
		if deadline != nil && s.horizon > *deadline+1 {
			s.horizon = *deadline + 1
		}
		s.stats.Windows++
		for _, e := range s.shards {
			fired := e.Fired()
			e.RunBefore(s.horizon)
			if e.Fired() == fired {
				s.stats.Stalls++
			}
		}
	}
}

// The window loop runs only the shards whose cached next event lies
// below the horizon. Against the loop that peeks and runs every shard it
// fires the same events in the same order on every shard and counts the
// same windows, posts and stalls, also when the caller schedules on
// shards between RunUntil calls, ahead of their cached next events.
func TestShardedCachedNextMatchesPeekAll(t *testing.T) {
	var stalls uint64
	for _, la := range []Time{time.Microsecond / 2, 2 * time.Microsecond, 7 * time.Microsecond} {
		for _, workers := range []int{1, 3} {
			drive := func(m *ringModel, runUntil func(Time), run func()) ShardStats {
				for k := 1; k <= 8; k++ {
					deadline := Time(k) * 5 * time.Microsecond
					runUntil(deadline)
					i := k % m.s.Shards()
					m.s.Shard(i).At(deadline+Time(k)*100*time.Nanosecond, m.tokenFn(i, 1000+k, k))
				}
				run()
				return m.s.Stats()
			}
			ref := newRingModel(4, 1, la)
			refStats := drive(ref, func(d Time) {
				peekAllWindows(ref.s, &d)
				for _, e := range ref.s.shards {
					e.RunUntil(d)
				}
			}, func() { peekAllWindows(ref.s, nil) })
			got := newRingModel(4, workers, la)
			gotStats := drive(got, got.s.RunUntil, got.s.Run)
			got.s.Close()
			ref.s.Close()
			if gotStats != refStats {
				t.Fatalf("lookahead %v, workers %d: stats %+v, want %+v", la, workers, gotStats, refStats)
			}
			for i := range ref.logs {
				if fmt.Sprint(got.logs[i]) != fmt.Sprint(ref.logs[i]) {
					t.Fatalf("lookahead %v, workers %d: shard %d fired\n%v\nwant\n%v", la, workers, i, got.logs[i], ref.logs[i])
				}
			}
			stalls += refStats.Stalls
		}
	}
	if stalls == 0 {
		t.Fatal("no run stalled a shard")
	}
}

// BenchmarkShardedRing measures windowed-execution throughput on the
// synthetic ring at 1 and 4 workers. On multi-core hosts the parallel
// variant demonstrates the scaling headroom the 1-CPU CI container
// cannot show (see docs/PERF.md).
func BenchmarkShardedRing(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				m := newRingModel(4, workers, 2*time.Microsecond)
				m.s.Run()
				if events == 0 {
					for _, log := range m.logs {
						events += len(log)
					}
				}
				m.s.Close()
			}
			b.ReportMetric(float64(events), "events/run")
		})
	}
}
