package simclock

import (
	"math/rand"
	"testing"
	"time"

	"liger/internal/simclock/refheap"
)

// The differential property test drives the engine (a sorted run plus a
// heap) and the frozen binary-heap reference (internal/simclock/refheap)
// side by side through the same randomized workload and asserts they
// agree on everything observable: fire order, the clock value passed to
// each callback, Now, Fired, Pending, and NextEventAt. Both engines order
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

	// seen counts the run/heap boundaries the workload crossed.
	seen *coverage
}

// coverage counts, over a workload, the events appended to the run and
// inserted into the heap, the schedules that tied the run's last
// instant, the cancels of the run's head and of its tail, and the
// compactions that found both structures holding entries.
type coverage struct {
	appends, inserts, ties, headCancels, tailCancels, compactions int
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
	return &diffPair{t: t, cal: New(), ref: refheap.New(), seen: new(coverage)}
}

// scheduleAt arms the same event on both engines.
func (p *diffPair) scheduleAt(at Time) {
	id := p.nextID
	p.nextID++
	if tail := p.runTail(); tail != nil && tail.at == at {
		p.seen.ties++
	}
	ch := p.cal.At(at, func(now Time) { p.calFired = append(p.calFired, firing{id, now}) })
	rh := p.ref.At(at, func(now refheap.Time) { p.refFired = append(p.refFired, firing{id, now}) })
	p.handles = append(p.handles, diffHandle{cal: ch, ref: rh, live: true})
	if p.runTail() == ch.it {
		p.seen.appends++
	} else {
		p.seen.inserts++
	}
}

// runHead and runTail return the first and last entries of the engine's
// run, or nil when it is empty.
func (p *diffPair) runHead() *item {
	if e := p.cal; e.head < len(e.run) {
		return e.run[e.head]
	}
	return nil
}

func (p *diffPair) runTail() *item {
	if e := p.cal; e.head < len(e.run) {
		return e.run[len(e.run)-1]
	}
	return nil
}

// cancelItem cancels, on both engines, the live event the engine holds
// in it; it reports false when no live handle holds it.
func (p *diffPair) cancelItem(it *item) bool {
	for i, h := range p.handles {
		if h.live && it != nil && h.cal.it == it && h.cal.gen == it.gen {
			p.cancel(i)
			return true
		}
	}
	return false
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
		p.t.Fatalf("fired %d events on the engine, %d on refheap", len(p.calFired), len(p.refFired))
	}
	for i := p.checked; i < len(p.calFired); i++ {
		if p.calFired[i] != p.refFired[i] {
			p.t.Fatalf("firing %d diverged: engine (id=%d now=%v), refheap (id=%d now=%v)",
				i, p.calFired[i].id, p.calFired[i].now, p.refFired[i].id, p.refFired[i].now)
		}
	}
	p.checked = len(p.calFired)
	if p.cal.Now() != p.ref.Now() {
		p.t.Fatalf("Now diverged: engine %v, refheap %v", p.cal.Now(), p.ref.Now())
	}
	if p.cal.Fired() != p.ref.Fired() {
		p.t.Fatalf("Fired diverged: engine %d, refheap %d", p.cal.Fired(), p.ref.Fired())
	}
	if p.cal.Pending() != p.ref.Pending() {
		p.t.Fatalf("Pending diverged: engine %d, refheap %d", p.cal.Pending(), p.ref.Pending())
	}
	ca, cok := p.cal.NextEventAt()
	ra, rok := p.ref.NextEventAt()
	if cok != rok || ca != ra {
		p.t.Fatalf("NextEventAt diverged: engine (%v,%v), refheap (%v,%v)", ca, cok, ra, rok)
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
// distribution chosen to land on both sides of the run's tail: ties at
// its last instant, inserts just behind it, same-instant bursts, dense
// near-horizon clusters and far-future outliers.
func (p *diffPair) offset(prog *program) Time {
	now := p.cal.Now()
	switch prog.next() % 8 {
	case 0: // same-instant burst
		return 0
	case 1: // tie at the run's last instant
		if tail := p.runTail(); tail != nil {
			return tail.at - now
		}
		return 0
	case 2: // just behind the run's tail: an out-of-order insert
		if tail := p.runTail(); tail != nil && tail.at > now {
			return tail.at - now - 1 - Time(prog.next16())%(tail.at-now)
		}
		return Time(prog.next()%64) * time.Nanosecond
	case 3: // sub-microsecond cluster
		return Time(prog.next()%64) * time.Nanosecond
	case 4: // near horizon
		return Time(prog.next16()%1000) * time.Microsecond
	case 5: // tens of milliseconds out
		return Time(prog.next()%100) * time.Millisecond
	case 6: // deep far future
		return time.Hour + Time(prog.next16()%1000)*time.Second
	default: // sentinel-scale, like kernels at rate 0
		// Target an absolute instant near 2^60, not a relative offset:
		// repeated now+2^60 hops would ratchet the clock into int64
		// overflow.
		if at := Time(1<<60) + Time(prog.next16()%1000); at >= now {
			return at - now
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

// The ops of a program: an op byte k runs the op with the largest code
// at most k%100.
const (
	opSchedule   = 0  // one event at an offset
	opBurst      = 26 // an in-order burst that extends the run
	opCancel     = 30 // a random handle, stale ones included
	opCancelRun  = 40 // the run's head or its tail
	opRearm      = 44 // cancel then schedule, the kernel re-time pattern
	opMassCancel = 50 // churn that forces compaction
	opReserve    = 53 // a position, as a stream command's delivery takes
	opArm        = 59 // a reserved position, unless the clock passed it
	opStep       = 65
	opRunFor     = 84
	opRunUntil   = 94 // deadline inclusive
)

// opCodes lists the op codes in ascending order.
var opCodes = [...]int{opSchedule, opBurst, opCancel, opCancelRun, opRearm, opMassCancel,
	opReserve, opArm, opStep, opRunFor, opRunUntil}

// opAt returns the op that op byte k runs.
func opAt(k byte) int {
	op := opSchedule
	for _, o := range opCodes {
		if o <= int(k)%100 {
			op = o
		}
	}
	return op
}

// run interprets prog on both engines, checking every observable after
// each op, then drains both.
func (p *diffPair) run(prog *program) {
	var reserved []reservation
	for !prog.done() {
		switch opAt(byte(prog.next())) {
		case opSchedule:
			p.scheduleAt(p.cal.Now() + p.offset(prog))
		case opBurst:
			at := p.cal.Now()
			if tail := p.runTail(); tail != nil {
				at = tail.at
			}
			for n := prog.next()%16 + 1; n > 0; n-- {
				at += Time(prog.next()%8) * time.Microsecond
				p.scheduleAt(at)
			}
		case opCancel:
			if i := prog.next16(); len(p.handles) > 0 {
				p.cancel(i % len(p.handles))
			}
		case opCancelRun:
			if prog.next()%2 == 0 {
				if p.cancelItem(p.runHead()) {
					p.seen.headCancels++
				}
			} else if p.cancelItem(p.runTail()) {
				p.seen.tailCancels++
			}
		case opRearm:
			if i := prog.next16(); len(p.handles) > 0 {
				p.cancel(i % len(p.handles))
				p.scheduleAt(p.cal.Now() + Time(prog.next16()%2000)*time.Microsecond)
			}
		case opMassCancel:
			both := p.runHead() != nil && len(p.cal.heap) > 0
			before := p.cal.Stats().Compactions
			keep := prog.next()%4 + 2
			for i, h := range p.handles {
				if h.live && i%keep != 0 {
					p.cancel(i)
				}
			}
			if both && p.cal.Stats().Compactions > before {
				p.seen.compactions++
			}
		case opReserve:
			at := p.cal.Now() + p.offset(prog)
			cs, rs := p.cal.Reserve(), p.ref.Reserve()
			if cs != rs {
				p.t.Fatalf("Reserve diverged: engine %d, refheap %d", cs, rs)
			}
			reserved = append(reserved, reservation{at, cs})
		case opArm:
			if i := prog.next16(); len(reserved) > 0 {
				i %= len(reserved)
				r := reserved[i]
				reserved = append(reserved[:i], reserved[i+1:]...)
				cp, rp := p.cal.Passed(r.at, r.seq), p.ref.Passed(r.at, r.seq)
				if cp != rp {
					p.t.Fatalf("Passed(%v, %d) diverged: engine %v, refheap %v", r.at, r.seq, cp, rp)
				}
				if !cp {
					p.armAt(r)
				}
			}
		case opStep:
			cs := p.cal.Step()
			rs := p.ref.Step()
			if cs != rs {
				p.t.Fatalf("Step diverged: engine %v, refheap %v", cs, rs)
			}
		case opRunFor:
			d := Time(prog.next16()%5000) * time.Microsecond
			p.cal.RunFor(d)
			p.ref.RunFor(d)
		case opRunUntil:
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
		p.t.Fatalf("engine left %d pending after Run", p.cal.Pending())
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
// test: seeded random programs of every op, with timestamp
// distributions chosen to land on both sides of the run's tail. Over the
// seeds, the workloads must append to the run and insert into the heap,
// tie the run's last instant, cancel its head and its tail, and compact
// with entries in both structures.
func TestDifferentialRandomWorkloads(t *testing.T) {
	var seen coverage
	for seed := int64(0); seed < 12; seed++ {
		t.Run("", func(t *testing.T) {
			p := newDiffPair(t)
			p.seen = &seen
			p.run(&program{b: randomProgram(seed, 4000)})
		})
	}
	if seen.appends == 0 || seen.inserts == 0 || seen.ties == 0 || seen.headCancels == 0 ||
		seen.tailCancels == 0 || seen.compactions == 0 {
		t.Fatalf("the workloads missed a boundary of the queue: %+v", seen)
	}
}

// FuzzEngineVsRefheap drives the engine and the reference heap through
// the same fuzzed program and requires the same fire order, clocks and
// counters. Plain go test runs its seeds only; search with
//
//	go test -run XXX -fuzz FuzzEngineVsRefheap ./internal/simclock
func FuzzEngineVsRefheap(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randomProgram(100+seed, 60))
	}
	// A same-instant burst of schedules and reservations, then a drain.
	burst := make([]byte, 0, 600)
	for i := 0; i < 100; i++ {
		burst = append(burst, opSchedule, 0, opReserve, 0)
	}
	f.Add(append(burst, opRunFor, 0, 0))
	// In-order bursts that extend the run, each followed by an insert
	// just behind its tail and a tie at its last instant, then a step.
	var run []byte
	for i := 0; i < 8; i++ {
		run = append(run, opBurst, 15, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7, 1, 2,
			opSchedule, 2, 0, byte(i), opSchedule, 1, opStep)
	}
	f.Add(run)
	// Cancels of the run's head and tail between steps, with the heap
	// holding events ahead of both.
	var cancels []byte
	for i := 0; i < 6; i++ {
		cancels = append(cancels, opBurst, 7, 3, 3, 3, 3, 3, 3, 3, 3, opSchedule, 3, 10,
			opCancelRun, 0, opCancelRun, 1, opStep, opCancelRun, 0)
	}
	f.Add(cancels)
	// A run and a heap of 40 events each, then mass cancels that compact
	// both, then a drain.
	var compact []byte
	for i := 0; i < 5; i++ {
		compact = append(compact, opBurst, 7, 1, 1, 1, 1, 1, 1, 1, 1)
	}
	for i := 0; i < 40; i++ {
		compact = append(compact, opSchedule, 2, byte(i), byte(i))
	}
	f.Add(append(compact, opMassCancel, 2, opStep, opMassCancel, 0, opRunUntil, 0, 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		// Mass cancels scan every handle, so keep programs short enough
		// to run quickly.
		if len(b) > 1<<14 {
			b = b[:1<<14]
		}
		newDiffPair(t).run(&program{b: b})
	})
}

// TestDifferentialSameInstantBurst pins FIFO tie-breaking across a
// burst of 5,000 events, interleaved with cancels of every third event.
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

// TestDifferentialIdleJumpThenNearSchedule: NextEventAt on a queue whose
// only event lies an hour ahead, then schedules between the clock and
// that event, ahead of the run's tail.
func TestDifferentialIdleJumpThenNearSchedule(t *testing.T) {
	p := newDiffPair(t)
	p.scheduleAt(time.Hour)
	p.check() // NextEventAt inside check() peeks the hour-ahead event
	p.scheduleAt(5 * time.Microsecond)
	p.scheduleAt(2 * time.Second)
	p.check()
	cs := p.cal.Step()
	rs := p.ref.Step()
	if cs != rs || !cs {
		t.Fatalf("Step diverged after the idle peek: engine %v, refheap %v", cs, rs)
	}
	p.cal.Run()
	p.ref.Run()
	p.check()
}
