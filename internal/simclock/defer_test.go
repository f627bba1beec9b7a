package simclock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// deferCase is a computation the tests run either at once or deferred
// (Defer), with foreign events around it. The computation starts at the
// instant start, from inside an event, and schedules its events at the
// offsets steps from there, each of which logs; the step at offset
// steps[chain] schedules one more at offset more from its own instant.
// Its last event, at start+end, logs "done". Foreign events fire at the
// instants foreign; the one at touchAt, with touch set, touches the
// engine in the way touch says and then logs the clock and reads the
// computation's log. With between set, the engine is stepped by hand
// and the touch comes between steps instead, right after the foreign
// event at touchAt.
type deferCase struct {
	start, end Time
	steps      []Time
	chain      int
	more       Time
	foreign    []Time
	touchAt    Time
	touch      func(e *Engine)
	between    bool
}

// run runs c with the computation deferred or not, and returns the
// computation's log, then the foreign events' log, and the engine. The
// computation's log is its state, read only by the touch and at the
// end; rec is the whole of it, which the deferred computation's end
// event writes, as a replay adds the work it stands for.
func (c deferCase) run(t *testing.T, deferred bool, rec string) (string, *Engine) {
	t.Helper()
	e := New()
	var comp, foreign strings.Builder
	compute := func() {
		for i, off := range c.steps {
			e.At(c.start+off, func(now Time) {
				fmt.Fprintf(&comp, "%d step %d\n", now, i)
				if i == c.chain {
					e.After(c.more, func(now Time) { fmt.Fprintf(&comp, "%d chained\n", now) })
				}
			})
		}
		e.At(c.start+c.end, func(now Time) { fmt.Fprintf(&comp, "%d done\n", now) })
	}
	touch := func(now Time) {
		c.touch(e)
		fmt.Fprintf(&foreign, "%d after the touch, %v %v: %s", e.Now(), e.Passed(now, e.Seq()), e.Passed(now, 0), comp.String())
	}
	touched := false
	for i, at := range c.foreign {
		e.At(at, func(now Time) {
			fmt.Fprintf(&foreign, "%d foreign %d\n", now, i)
			if c.touch != nil && at == c.touchAt && !c.between {
				touch(now)
			}
			touched = at == c.touchAt
		})
	}
	e.At(c.start, func(Time) {
		if !deferred {
			compute()
			return
		}
		if !e.Defer(c.start+c.end, func(Time) { comp.WriteString(rec) }, compute) {
			t.Fatal("Defer refused")
		}
	})
	for e.Step() {
		if touched && c.touch != nil && c.between {
			touch(e.Now())
		}
		touched = false
	}
	return comp.String() + "\n" + foreign.String(), e
}

// record returns the computation's log from an untouched plain run.
func (c deferCase) record(t *testing.T) string {
	c.touch = nil
	log, _ := c.run(t, false, "")
	return log[:strings.Index(log, "\n\n")+1]
}

// check runs c both ways and fails unless the logs agree; it returns the
// deferred run's engine.
func (c deferCase) check(t *testing.T) *Engine {
	t.Helper()
	plain, _ := c.run(t, false, "")
	deferred, e := c.run(t, true, c.record(t))
	if plain != deferred {
		t.Fatalf("deferred run differs from the plain one:\n%s\nplain:\n%s", deferred, plain)
	}
	return e
}

// TestDeferredComputationRunsUntouched: a computation nothing touches
// leaves only its end event: the foreign events inside its span fire
// around it, and the engine fires fewer events than the plain run.
func TestDeferredComputationRunsUntouched(t *testing.T) {
	c := deferCase{start: 100, end: 1000, steps: []Time{0, 10, 500, 1000}, chain: 1, more: 30,
		foreign: []Time{100, 110, 600, 1100, 1200}}
	e := c.check(t)
	if _, p := c.run(t, false, ""); e.Fired() >= p.Fired() {
		t.Fatalf("deferred run fired %d events, plain %d", e.Fired(), p.Fired())
	}
}

// TestCatchUpIsExact touches a deferred computation in every way that
// catches it up, at instants before, between and on its events, from
// inside a firing foreign event and between steps of an engine stepped
// by hand: the log must match the plain run's, and the clock must be
// back at the foreign event's position after the touch. Two long spans
// take a Touch too: one late, when the catch-up's events land behind
// everything queued after the computation started, and one early, when
// they land seconds ahead of the clock.
func TestCatchUpIsExact(t *testing.T) {
	touches := map[string]func(e *Engine){
		"Touch":       func(e *Engine) { e.Touch() },
		"At":          func(e *Engine) { e.At(e.Now()+5, func(Time) {}) },
		"AtSeq":       func(e *Engine) { s := e.Reserve(); e.AtSeq(e.Now(), s, func(Time) {}) },
		"NextEventAt": func(e *Engine) { e.NextEventAt() },
		"Pending":     func(e *Engine) { e.Pending() },
		"PendingRaw":  func(e *Engine) { e.PendingRaw() },
		"InReserved": func(e *Engine) {
			s := e.Reserve()
			e.InReserved(s, 1, func() { e.At(e.Now(), func(Time) {}) })
		},
	}
	for name, touch := range touches {
		for _, at := range []Time{100, 105, 110, 140, 600, 1099, 1100} {
			c := deferCase{start: 100, end: 1000, steps: []Time{0, 10, 40, 500, 1000}, chain: 1, more: 30,
				foreign: []Time{100, 105, 110, 140, 600, 1099, 1100, 1200}, touchAt: at, touch: touch}
			t.Run(fmt.Sprintf("%s at %d", name, at), func(t *testing.T) { c.check(t) })
			c.between = true
			t.Run(fmt.Sprintf("%s between steps at %d", name, at), func(t *testing.T) { c.check(t) })
		}
	}
	ms, s := Time(time.Millisecond), Time(time.Second)
	for name, c := range map[string]deferCase{
		"Touch late in a 50ms span": {start: 7, end: 50 * ms, steps: []Time{0, 3, 2 * ms, 50 * ms}, chain: 2, more: ms,
			foreign: []Time{20 * ms, 30 * ms, 60 * ms}, touchAt: 30 * ms},
		"Touch early in a 3s span": {start: 5, end: 3 * s, steps: []Time{0, 1, 2 * s, 3 * s}, chain: 1, more: s / 2,
			foreign: []Time{50, 2500 * ms}, touchAt: 50},
	} {
		c.touch = touches["Touch"]
		t.Run(name, func(t *testing.T) { c.check(t) })
	}
}

// TestCatchUpKeepsInReservedPanics: a catch-up runs InReserved under the
// same rules as anywhere else. A block the rewound clock has passed, or
// one overdrawn, panics.
func TestCatchUpKeepsInReservedPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		over bool
	}{{"passed block", false}, {"overdrawn block", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			var first uint64
			e.At(10, func(now Time) { first = e.Reserve() })
			e.At(10, func(now Time) {
				block := e.ReserveN(1)
				if !tc.over {
					block = first
				}
				e.Defer(now+100, func(Time) {}, func() {
					e.InReserved(block, 1, func() {
						e.At(e.Now(), func(Time) {})
						e.At(e.Now(), func(Time) {})
					})
				})
			})
			e.At(50, func(Time) {
				defer func() {
					if recover() == nil {
						t.Fatal("no panic")
					}
				}()
				e.Touch()
			})
			e.Run()
		})
	}
}

// TestDeferRefusals: Defer schedules nothing when the run stops before
// the end, on a shard past the executor's deadline, or inside a
// catch-up; a RunUntil that stops inside an open span catches it up
// first.
func TestDeferRefusals(t *testing.T) {
	e := New()
	ok := true
	e.At(10, func(now Time) { ok = e.Defer(now+100, func(Time) {}, func() {}) })
	e.RunUntil(50)
	if ok || e.Pending() != 0 {
		t.Fatalf("Defer past a RunUntil deadline: %v, %d pending", ok, e.Pending())
	}
	shardRefusals(t)
	nested := true
	if !e.Defer(e.Now()+100, func(Time) {}, func() { nested = e.Defer(e.Now()+1, func(Time) {}, func() {}) }) {
		t.Fatal("Defer refused")
	}
	fired := false
	e.At(e.Now()+10, func(Time) { fired = true })
	if nested || fired {
		t.Fatalf("Defer inside a catch-up: %v", nested)
	}
	caught := false
	if !e.Defer(e.Now()+100, func(Time) {}, func() { caught = true }) {
		t.Fatal("Defer refused")
	}
	e.RunUntil(e.Now() + 50)
	if !caught {
		t.Fatal("RunUntil stopped inside a deferred span without catching it up")
	}
	e.RunBefore(e.Now() + 10)
	if !e.Defer(e.Now()+1000, func(Time) {}, func() {}) {
		t.Fatal("Defer refused after RunBefore returned: the run bound outlived the run")
	}
}

// shardRefusals: a shard's run bound is the executor's deadline, not a
// window's horizon. A deferral past the deadline is refused; one past
// the horizon is taken and outlasts its window uncaught; one taken
// between runs is caught up by a RunUntil whose deadline falls inside
// it.
func shardRefusals(t *testing.T) {
	t.Helper()
	s := NewSharded(2, 10, 1)
	defer s.Close()
	e := s.Shard(1)
	past, beyond, caught := true, false, false
	e.At(10, func(now Time) { past = e.Defer(now+100, func(Time) {}, func() {}) })
	s.RunUntil(50)
	if past || e.Pending() != 0 {
		t.Fatalf("Defer on a shard past the executor's deadline: %v, %d pending", past, e.Pending())
	}
	var ended Time
	e.At(60, func(now Time) {
		beyond = e.Defer(now+100, func(now Time) { ended = now }, func() { caught = true })
	})
	s.Shard(0).At(60, func(Time) {})
	s.RunUntil(200)
	if !beyond || caught || ended != 160 || s.Stats().Windows < 2 {
		t.Fatalf("Defer on a shard past a window's horizon: taken %v, caught up %v, ended at %v, %d windows",
			beyond, caught, ended, s.Stats().Windows)
	}
	caught = false
	if !e.Defer(e.Now()+100, func(Time) {}, func() { caught = true }) {
		t.Fatal("Defer refused between runs")
	}
	s.RunUntil(e.Now() + 50)
	if !caught {
		t.Fatal("Sharded.RunUntil stopped inside a deferred span without catching it up")
	}
}

// deferSeqsRun runs a computation that starts at 10 from inside an
// event, takes five sequence numbers and ends with an event at (30, its
// third number), deferred with DeferSeqs or not. A foreign event queued
// before it fires at 30, and one at 20 touches the engine when touch is
// set. It returns the log and the engine's sequence number at the end.
func deferSeqsRun(t *testing.T, deferred, touch bool) (string, uint64) {
	t.Helper()
	e := New()
	var log strings.Builder
	e.At(20, func(now Time) {
		if touch {
			e.Touch()
		}
		fmt.Fprintf(&log, "%d foreign at 20, seq %d\n", now, e.Seq())
	})
	e.At(30, func(now Time) { fmt.Fprintf(&log, "%d foreign at 30\n", now) })
	e.At(10, func(Time) {
		first := e.Seq()
		end := func(now Time) { fmt.Fprintf(&log, "%d end, seq %d\n", now, e.Seq()-first) }
		compute := func() {
			e.At(15, func(now Time) { fmt.Fprintf(&log, "%d step\n", now) })
			e.Reserve()
			e.AtSeq(30, e.Reserve(), end)
			e.ReserveN(2)
		}
		if !deferred {
			compute()
			return
		}
		if !e.DeferSeqs(30, first+2, 5, end, compute) {
			t.Fatal("DeferSeqs refused")
		}
		if seq, ok := e.Firing(); !ok || seq >= first {
			t.Errorf("Firing() = %d, %v inside the event that deferred at seq %d", seq, ok, first)
		}
	})
	e.Run()
	return log.String(), e.Seq()
}

// A computation deferred with DeferSeqs takes its sequence numbers at
// once and ends in the place of its own last event; caught up, it gives
// them back and takes them again as it runs, so a plain run and a
// deferred one, touched or not, fire the same events in the same order
// and end at the same sequence number.
func TestDeferSeqs(t *testing.T) {
	for _, touch := range []bool{false, true} {
		want, wantSeq := deferSeqsRun(t, false, touch)
		if !touch {
			// Left deferred, the computation logs only its end.
			want = strings.Replace(want, "15 step\n", "", 1)
		}
		got, gotSeq := deferSeqsRun(t, true, touch)
		if got != want {
			t.Errorf("touch %v: deferred run logged\n%s\nplain run\n%s", touch, got, want)
		}
		if gotSeq != wantSeq {
			t.Errorf("touch %v: deferred run ends at seq %d, plain run at %d", touch, gotSeq, wantSeq)
		}
	}
	e := New()
	e.At(10, func(Time) {
		first := e.Seq()
		if e.DeferSeqs(30, first+5, 5, func(Time) {}, func() {}) || e.DeferSeqs(30, first-1, 5, func(Time) {}, func() {}) {
			t.Error("DeferSeqs took an end outside its block")
		}
		if e.Seq() != first {
			t.Errorf("refused DeferSeqs took %d sequence numbers", e.Seq()-first)
		}
	})
	e.RunUntil(20)
	h := e.At(40, func(Time) {})
	if at, _, ok := h.Pos(); !ok || at != 40 {
		t.Errorf("Pos of a queued event = %v, %v; want 40, true", at, ok)
	}
	h.Cancel()
	if _, _, ok := h.Pos(); ok {
		t.Error("Pos of a cancelled event reports it queued")
	}
	e.At(25, func(Time) {
		if e.DeferSeqs(35, e.Seq(), 1, func(Time) {}, func() {}) {
			t.Error("DeferSeqs deferred past the RunUntil deadline")
		}
	})
	e.RunUntil(30)
}
