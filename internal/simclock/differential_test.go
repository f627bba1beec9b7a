package simclock

import (
	"math/rand"
	"testing"
	"time"

	"liger/internal/simclock/refheap"
)

// The differential property test drives the calendar-queue engine and
// the frozen binary-heap reference (internal/simclock/refheap) side by
// side through the same randomized workload and asserts they agree on
// everything observable: fire order, the clock value passed to each
// callback, Now, Fired, Pending, and NextEventAt. Both engines order
// events by the same strict total order (at, seq), so any divergence is
// a bug in one of the queues, not a legitimate implementation choice.

// diffPair keeps the two engines plus the shared workload bookkeeping.
type diffPair struct {
	t   *testing.T
	cal *Engine
	ref *refheap.Engine

	// calFired / refFired log (event id, now) pairs per engine; the
	// first checked of them are known to agree.
	calFired []firing
	refFired []firing
	checked  int

	handles []diffHandle
	nextID  int
}

type firing struct {
	id  int
	now Time
}

type diffHandle struct {
	cal  Handle
	ref  refheap.Handle
	live bool
}

func newDiffPair(t *testing.T) *diffPair {
	return &diffPair{t: t, cal: New(), ref: refheap.New()}
}

// scheduleAt arms the same event on both engines.
func (p *diffPair) scheduleAt(at Time) {
	id := p.nextID
	p.nextID++
	ch := p.cal.At(at, func(now Time) { p.calFired = append(p.calFired, firing{id, now}) })
	rh := p.ref.At(at, func(now refheap.Time) { p.refFired = append(p.refFired, firing{id, now}) })
	p.handles = append(p.handles, diffHandle{cal: ch, ref: rh, live: true})
}

// cancel cancels handle i on both engines (stale/double cancels included
// on purpose — they must be no-ops on both sides).
func (p *diffPair) cancel(i int) {
	p.handles[i].cal.Cancel()
	p.handles[i].ref.Cancel()
	p.handles[i].live = false
}

// check asserts every observable agrees between the engines.
func (p *diffPair) check() {
	p.t.Helper()
	if len(p.calFired) != len(p.refFired) {
		p.t.Fatalf("fired %d events on calendar, %d on refheap", len(p.calFired), len(p.refFired))
	}
	for i := p.checked; i < len(p.calFired); i++ {
		if p.calFired[i] != p.refFired[i] {
			p.t.Fatalf("firing %d diverged: calendar (id=%d now=%v), refheap (id=%d now=%v)",
				i, p.calFired[i].id, p.calFired[i].now, p.refFired[i].id, p.refFired[i].now)
		}
	}
	p.checked = len(p.calFired)
	if p.cal.Now() != p.ref.Now() {
		p.t.Fatalf("Now diverged: calendar %v, refheap %v", p.cal.Now(), p.ref.Now())
	}
	if p.cal.Fired() != p.ref.Fired() {
		p.t.Fatalf("Fired diverged: calendar %d, refheap %d", p.cal.Fired(), p.ref.Fired())
	}
	if p.cal.Pending() != p.ref.Pending() {
		p.t.Fatalf("Pending diverged: calendar %d, refheap %d", p.cal.Pending(), p.ref.Pending())
	}
	ca, cok := p.cal.NextEventAt()
	ra, rok := p.ref.NextEventAt()
	if cok != rok || ca != ra {
		p.t.Fatalf("NextEventAt diverged: calendar (%v,%v), refheap (%v,%v)", ca, cok, ra, rok)
	}
}

// program is a differential workload encoded as bytes, so the fuzzer
// can mutate it: each op takes one byte and reads its arguments from the
// bytes after it; a program that runs out reads zeros.
type program struct {
	b []byte
	i int
}

func (p *program) done() bool { return p.i >= len(p.b) }

// next returns the next byte of the program.
func (p *program) next() int {
	if p.done() {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

// next16 returns the next two bytes as one number.
func (p *program) next16() int { return p.next()<<8 | p.next() }

// offset draws a scheduling offset from the program, with a
// distribution chosen to stress every band and transition of the
// calendar queue.
func (p *diffPair) offset(prog *program) Time {
	switch prog.next() % 6 {
	case 0: // same-instant burst
		return 0
	case 1: // sub-bucket cluster
		return Time(prog.next()%64) * time.Nanosecond
	case 2: // near horizon (current window)
		return Time(prog.next16()%1000) * time.Microsecond
	case 3: // beyond the initial window -> far band
		return Time(prog.next()%100) * time.Millisecond
	case 4: // deep far future
		return time.Hour + Time(prog.next16()%1000)*time.Second
	default: // sentinel-scale, like kernels at rate 0
		// Target an absolute instant near 2^60, not a relative offset:
		// repeated now+2^60 hops would ratchet the clock into int64
		// overflow.
		if at := Time(1<<60) + Time(prog.next16()%1000); at >= p.cal.Now() {
			return at - p.cal.Now()
		}
		return time.Hour
	}
}

// reservation is a (time, seq) position reserved on both engines and
// not yet armed.
type reservation struct {
	at  Time
	seq uint64
}

// run interprets prog on both engines — schedule, cancel, re-arm,
// mass-cancel, Reserve and a later AtSeq, Step, RunFor and RunUntil —
// checking every observable after each op, then drains both.
func (p *diffPair) run(prog *program) {
	var reserved []reservation
	for !prog.done() {
		switch k := prog.next() % 100; {
		case k < 30: // schedule with a band-stressing offset
			p.scheduleAt(p.cal.Now() + p.offset(prog))
		case k < 42: // cancel a random handle (stale ones included)
			if i := prog.next16(); len(p.handles) > 0 {
				p.cancel(i % len(p.handles))
			}
		case k < 50: // re-arm: cancel then schedule, the kernel re-time pattern
			if i := prog.next16(); len(p.handles) > 0 {
				p.cancel(i % len(p.handles))
				p.scheduleAt(p.cal.Now() + Time(prog.next16()%2000)*time.Microsecond)
			}
		case k < 53: // mass-cancel churn to force compaction
			keep := prog.next()%4 + 2
			for i, h := range p.handles {
				if h.live && i%keep != 0 {
					p.cancel(i)
				}
			}
		case k < 59: // reserve a position, as a stream command's delivery does
			at := p.cal.Now() + p.offset(prog)
			cs, rs := p.cal.Reserve(), p.ref.Reserve()
			if cs != rs {
				p.t.Fatalf("Reserve diverged: calendar %d, refheap %d", cs, rs)
			}
			reserved = append(reserved, reservation{at, cs})
		case k < 65: // arm a reserved position unless the clock passed it
			if i := prog.next16(); len(reserved) > 0 {
				i %= len(reserved)
				r := reserved[i]
				reserved = append(reserved[:i], reserved[i+1:]...)
				cp, rp := p.cal.Passed(r.at, r.seq), p.ref.Passed(r.at, r.seq)
				if cp != rp {
					p.t.Fatalf("Passed(%v, %d) diverged: calendar %v, refheap %v", r.at, r.seq, cp, rp)
				}
				if !cp {
					p.armAt(r)
				}
			}
		case k < 84: // step both
			cs := p.cal.Step()
			rs := p.ref.Step()
			if cs != rs {
				p.t.Fatalf("Step diverged: calendar %v, refheap %v", cs, rs)
			}
		case k < 94: // bounded run
			d := Time(prog.next16()%5000) * time.Microsecond
			p.cal.RunFor(d)
			p.ref.RunFor(d)
		default: // absolute-deadline run (deadline inclusive)
			dl := p.cal.Now() + Time(prog.next16()%2000)*time.Microsecond
			p.cal.RunUntil(dl)
			p.ref.RunUntil(dl)
		}
		p.check()
	}
	// Drain both completely: every remaining live event fires in the
	// same order.
	p.cal.Run()
	p.ref.Run()
	p.check()
	if p.cal.Pending() != 0 {
		p.t.Fatalf("calendar left %d pending after Run", p.cal.Pending())
	}
}

// armAt arms the same event at a reserved position on both engines.
func (p *diffPair) armAt(r reservation) {
	id := p.nextID
	p.nextID++
	ch := p.cal.AtSeq(r.at, r.seq, func(now Time) { p.calFired = append(p.calFired, firing{id, now}) })
	rh := p.ref.AtSeq(r.at, r.seq, func(now refheap.Time) { p.refFired = append(p.refFired, firing{id, now}) })
	p.handles = append(p.handles, diffHandle{cal: ch, ref: rh, live: true})
}

// randomProgram draws a program of ops from a seeded generator.
func randomProgram(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 6*ops) // an op reads at most six bytes
	rng.Read(b)
	return b
}

// TestDifferentialRandomWorkloads is the main differential property
// test: seeded random programs of schedule / cancel / re-arm /
// mass-cancel / Reserve+AtSeq / Step / RunUntil / RunFor ops, with
// timestamp distributions chosen to stress every band and transition of
// the calendar queue — same-instant bursts, dense near-horizon
// clusters, far-future outliers, and mass-cancel churn that forces
// compaction on both sides.
func TestDifferentialRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run("", func(t *testing.T) {
			newDiffPair(t).run(&program{b: randomProgram(seed, 4000)})
		})
	}
}

// FuzzEngineVsRefheap drives the calendar-queue engine and the
// reference heap through the same fuzzed program and requires the same
// fire order, clocks and counters. Plain go test runs its seeds only;
// search with
//
//	go test -run XXX -fuzz FuzzEngineVsRefheap ./internal/simclock
func FuzzEngineVsRefheap(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randomProgram(100+seed, 60))
	}
	// A same-instant burst of schedules and reservations, then a drain.
	burst := make([]byte, 0, 600)
	for i := 0; i < 100; i++ {
		burst = append(burst, 0, 0, 55, 0)
	}
	f.Add(append(burst, 90, 0, 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		// Mass cancels scan every handle, so keep programs short enough
		// to run quickly.
		if len(b) > 1<<14 {
			b = b[:1<<14]
		}
		newDiffPair(t).run(&program{b: b})
	})
}

// TestDifferentialSameInstantBurst pins FIFO tie-breaking across a burst
// far larger than a bucket, interleaved with cancels of every third
// event.
func TestDifferentialSameInstantBurst(t *testing.T) {
	p := newDiffPair(t)
	at := 3 * time.Millisecond
	for i := 0; i < 5000; i++ {
		p.scheduleAt(at)
	}
	for i := 0; i < len(p.handles); i += 3 {
		p.cancel(i)
	}
	p.cal.Run()
	p.ref.Run()
	p.check()
}

// TestDifferentialIdleJumpThenNearSchedule exercises the rebase path:
// NextEventAt on a far-only queue slides the calendar window deep into
// the future, then a schedule lands between the clock and the new
// window start.
func TestDifferentialIdleJumpThenNearSchedule(t *testing.T) {
	p := newDiffPair(t)
	p.scheduleAt(time.Hour)
	p.check() // NextEventAt inside check() forces the idle window jump
	p.scheduleAt(5 * time.Microsecond)
	p.scheduleAt(2 * time.Second)
	p.check()
	cs := p.cal.Step()
	rs := p.ref.Step()
	if cs != rs || !cs {
		t.Fatalf("Step diverged after rebase: calendar %v, refheap %v", cs, rs)
	}
	p.cal.Run()
	p.ref.Run()
	p.check()
	if st := p.cal.Stats(); st.Rebases == 0 {
		t.Fatal("workload did not exercise the rebase path")
	}
}
