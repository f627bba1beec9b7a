package simclock

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The reservation contract behind head-only delivery: an engine that
// takes a deferred event's place with Reserve, and arms it with AtSeq
// only when Passed says it is still due, must behave exactly like an
// engine that scheduled every deferred event eagerly with At, except
// that the deferred events it never armed do not fire. The differential
// test drives both through one randomized schedule/cancel/RunUntil
// workload, issuing and settling deferred events both between runs and
// inside callbacks (same-instant positions included), and compares fire
// order, the clock passed to every callback, Now, and every Passed
// answer.

// reserveSide is one engine's run of the shared workload.
type reserveSide struct {
	eng  *Engine
	lazy bool
	log  []firing
	// defs holds the deferred events in issue order and queue the
	// indexes of the unsettled ones, oldest first. answers records, for
	// each settle, whether the event was already due: on the eager side
	// whether it fired, on the lazy side what Passed said.
	defs    []*deferredEvent
	queue   []int
	answers []bool
	handles []Handle
}

type deferredEvent struct {
	id    int
	at    Time
	seq   uint64 // the lazy side's reservation
	fired bool   // eager side: the event fired
	armed bool   // lazy side: armed with AtSeq
}

// action is what a normal event does when it fires. It is decided when
// the event is scheduled, so both sides run identical callbacks.
type action struct {
	settle bool // settle the oldest unsettled deferred event
	issue  bool // issue deferred event def at now+off
	off    Time
	def    int
}

func (s *reserveSide) schedule(id int, at Time, a action) {
	s.handles = append(s.handles, s.eng.At(at, func(now Time) {
		s.log = append(s.log, firing{id, now})
		if a.settle {
			s.settle()
		}
		if a.issue {
			s.issue(a.def, now+a.off)
		}
	}))
}

// issue takes a deferred event's place: the eager side schedules it, the
// lazy side only reserves its position.
func (s *reserveSide) issue(id int, at Time) {
	d := &deferredEvent{id: id, at: at}
	s.defs = append(s.defs, d)
	s.queue = append(s.queue, len(s.defs)-1)
	if s.lazy {
		d.seq = s.eng.Reserve()
		return
	}
	s.eng.At(at, func(now Time) {
		d.fired = true
		s.log = append(s.log, firing{id, now})
	})
}

// settle decides the oldest unsettled deferred event: the lazy side arms
// it unless the clock has passed its position.
func (s *reserveSide) settle() {
	if len(s.queue) == 0 {
		return
	}
	d := s.defs[s.queue[0]]
	s.queue = s.queue[1:]
	if !s.lazy {
		s.answers = append(s.answers, d.fired)
		return
	}
	due := s.eng.Passed(d.at, d.seq)
	s.answers = append(s.answers, due)
	if !due {
		d.armed = true
		s.eng.AtSeq(d.at, d.seq, func(now Time) { s.log = append(s.log, firing{d.id, now}) })
	}
}

// checkReserve asserts the lazy side matches the eager one.
func checkReserve(t *testing.T, eager, lazy *reserveSide) {
	t.Helper()
	unarmed := map[int]bool{}
	for _, d := range lazy.defs {
		if !d.armed {
			unarmed[d.id] = true
		}
	}
	var want []firing
	for _, f := range eager.log {
		if !unarmed[f.id] {
			want = append(want, f)
		}
	}
	if len(lazy.log) != len(want) {
		t.Fatalf("lazy engine fired %d events, eager %d of the ones it armed", len(lazy.log), len(want))
	}
	for i := range want {
		if lazy.log[i] != want[i] {
			t.Fatalf("firing %d diverged: lazy (id=%d now=%v), eager (id=%d now=%v)",
				i, lazy.log[i].id, lazy.log[i].now, want[i].id, want[i].now)
		}
	}
	for i := range eager.answers {
		if eager.answers[i] != lazy.answers[i] {
			t.Fatalf("settle %d: eager event fired=%v, lazy Passed=%v", i, eager.answers[i], lazy.answers[i])
		}
	}
	if eager.eng.Now() != lazy.eng.Now() {
		t.Fatalf("Now diverged: eager %v, lazy %v", eager.eng.Now(), lazy.eng.Now())
	}
	// Between operations both clocks sit at the same position, so Passed
	// must answer whether each deferred event has fired on both engines.
	for k, d := range eager.defs {
		seq := lazy.defs[k].seq
		if got := eager.eng.Passed(d.at, seq); got != d.fired {
			t.Fatalf("eager Passed(%v, %d) = %v, event fired = %v", d.at, seq, got, d.fired)
		}
		if got := lazy.eng.Passed(d.at, seq); got != d.fired {
			t.Fatalf("lazy Passed(%v, %d) = %v, eager event fired = %v", d.at, seq, got, d.fired)
		}
	}
}

func TestDifferentialReserveAtSeq(t *testing.T) {
	var due, armed int
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eager := &reserveSide{eng: New()}
		lazy := &reserveSide{eng: New(), lazy: true}
		sides := []*reserveSide{eager, lazy}
		nextID := 0
		newID := func() int { nextID++; return nextID - 1 }
		offset := func() Time {
			switch rng.Intn(5) {
			case 0: // same instant
				return 0
			case 1: // sub-bucket
				return Time(rng.Intn(64))
			case 2: // near horizon
				return Time(rng.Intn(1000)) * time.Microsecond
			case 3: // beyond the initial window
				return Time(rng.Intn(100)) * time.Millisecond
			default: // deep far future
				return time.Hour + Time(rng.Intn(1000))*time.Second
			}
		}
		for op := 0; op < 2000; op++ {
			now := eager.eng.Now()
			switch k := rng.Intn(100); {
			case k < 40: // a normal event, which may settle and issue when it fires
				a := action{settle: rng.Intn(2) == 0, issue: rng.Intn(3) == 0}
				if a.issue {
					a.off, a.def = offset(), newID()
				}
				id, at := newID(), now+offset()
				for _, s := range sides {
					s.schedule(id, at, a)
				}
			case k < 55: // issue between runs
				id, at := newID(), now+offset()
				for _, s := range sides {
					s.issue(id, at)
				}
			case k < 65: // settle between runs
				for _, s := range sides {
					s.settle()
				}
			case k < 75: // cancel a normal event (stale cancels included)
				if n := len(eager.handles); n > 0 {
					i := rng.Intn(n)
					for _, s := range sides {
						s.handles[i].Cancel()
					}
				}
			case k < 82: // run exactly to an unsettled deferred event's instant
				if n := len(lazy.queue); n > 0 {
					dl := lazy.defs[lazy.queue[rng.Intn(n)]].at
					for _, s := range sides {
						s.eng.RunUntil(dl)
					}
				}
			default:
				dl := now + Time(rng.Intn(2000))*time.Microsecond
				for _, s := range sides {
					s.eng.RunUntil(dl)
				}
			}
			checkReserve(t, eager, lazy)
		}
		// Drain: settle everything, then run past every event; callbacks
		// may issue more deferred events, so repeat until none are left.
		for len(lazy.queue) > 0 || eager.eng.Pending() > 0 {
			for len(lazy.queue) > 0 {
				for _, s := range sides {
					s.settle()
				}
			}
			dl := eager.eng.Now() + 2*time.Hour
			for _, s := range sides {
				s.eng.RunUntil(dl)
			}
			checkReserve(t, eager, lazy)
		}
		if lazy.eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events left on the lazy engine", seed, lazy.eng.Pending())
		}
		if a, b := eager.eng.Reserve(), lazy.eng.Reserve(); a != b {
			t.Fatalf("seed %d: sequence numbers diverged: eager %d, lazy %d", seed, a, b)
		}
		for _, d := range lazy.defs {
			if d.armed {
				armed++
			} else {
				due++
			}
		}
	}
	if due == 0 || armed == 0 {
		t.Fatalf("%d deferred events armed, %d already due: the workload misses a path", armed, due)
	}
}

func TestAtSeqRejectsPassedOrUnreservedPositions(t *testing.T) {
	e := New()
	passed := e.Reserve()
	e.At(0, func(Time) {}) // fires at (0, passed+1), behind which (0, passed) lies
	e.Run()
	for _, tc := range []struct {
		name string
		arm  func()
	}{
		{"passed", func() { e.AtSeq(0, passed, func(Time) {}) }},
		{"unreserved", func() { e.AtSeq(time.Second, passed+2, func(Time) {}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AtSeq did not panic", tc.name)
				}
			}()
			tc.arm()
		}()
	}
}

// TestInReservedSchedulesInTheReservedPlace: events scheduled through a
// reserved block fire ahead of same-instant events scheduled after the
// reservation, as if they had been scheduled when the block was taken;
// a block overrun panics, and the engine's own numbering resumes after
// the block.
func TestInReservedSchedulesInTheReservedPlace(t *testing.T) {
	e := New()
	var order []string
	at := func(name string) Event { return func(Time) { order = append(order, name) } }
	e.At(0, func(Time) {
		first := e.ReserveN(2)
		e.At(time.Microsecond, at("later"))
		e.InReserved(first, 2, func() {
			e.At(time.Microsecond, at("reserved-a"))
			e.At(time.Microsecond, at("reserved-b"))
		})
		e.At(time.Microsecond, at("last"))
		defer func() {
			if recover() == nil {
				t.Error("a block overrun did not panic")
			}
		}()
		e.InReserved(first, 1, func() {
			e.Reserve()
			e.Reserve()
		})
	})
	e.Run()
	if want := []string{"reserved-a", "reserved-b", "later", "last"}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}

// TestShardEnginesKnowTheyAreShards: only a Sharded executor's engines
// report Shard.
func TestShardEnginesKnowTheyAreShards(t *testing.T) {
	if New().Shard() {
		t.Fatal("a plain engine reports Shard")
	}
	s := NewSharded(2, time.Microsecond, 1)
	defer s.Close()
	if !s.Shard(0).Shard() || !s.Shard(1).Shard() {
		t.Fatal("a shard engine does not report Shard")
	}
}
