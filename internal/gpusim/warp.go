package gpusim

import (
	"math"
	"slices"
	"strconv"
	"unsafe"

	"liger/internal/simclock"
)

// Period fast-forward (docs/PERF.md, "Period fast-forward"). A runtime
// whose rounds repeat every layer leaves its node, at a round start, in
// the state it was in one period earlier, shifted in time, in the
// engine's sequence numbers and in kernel and collective ids. The
// simulation reads time only as differences, so from there on the node
// does the same work, shifted, period after period; a runtime can skip
// periods by shifting the node's state instead of simulating them.
//
// EncodeState writes the node's state at a round start relative to the
// clock, the engine's next sequence number and the next kernel and
// collective ids, with every object named in the order the encoding
// first meets it: two encodings are equal exactly when the two states
// are the same state, shifted. Suspend takes the node's pending events
// off the engine, and Shift puts them back, k periods later, with the
// node's state and its tracer records shifted as well.

// Warp is a runtime's view of its node's state at a round start: the
// last state encoding's objects and pending events, and the callbacks
// the runtime subscribed to the node's events, which only it can name.
type Warp struct {
	known []knownFn
	// pending lists the node's pending events the last encoding found,
	// kernels, events and colls the objects it met, in encoding order.
	pending []pendingEvent
	kernels []*kernelInstance
	events  []*Event
	colls   []*Collective
	// fns are the closures of kernel completions and collective aborts,
	// named by their index. tails, layers and batches are the kernels'
	// names, split by LayerName, and batches.
	fns     []uintptr
	tails   []string
	layers  []int
	batches []int
	// The encoding's origin: the clock, the engine's next sequence
	// number and the node's next kernel and collective ids.
	now       simclock.Time
	seq       uint64
	kid, cid  int
	epoch     uint64
	suspended bool
}

type knownFn struct {
	id  uintptr
	tag uint64
}

// pendingEvent is a pending event of the node: its position, its
// callback and where its handle is kept.
type pendingEvent struct {
	at   simclock.Time
	seq  uint64
	fn   simclock.Event
	slot *simclock.Handle
}

// closureID identifies a func value by its closure: two values are the
// same closure exactly when their ids are equal.
func closureID[F any](fn F) uintptr {
	return *(*uintptr)(unsafe.Pointer(&fn))
}

// Kernels returns the names, split by LayerName, and the batches of the
// kernels the last encoding met, in its order. Names are not in the
// encoding: a kernel's name changes with its layer.
func (w *Warp) Kernels() (tails []string, layers, batches []int) { return w.tails, w.layers, w.batches }

// LayerName splits a layer kernel's name "l<l>.<tail>" into l and what
// follows the layer number; any other name has layer -1 and is its own
// tail.
func LayerName(name string) (layer int, tail string) {
	i := 1
	for i < len(name) && i < 10 && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	if len(name) < 3 || name[0] != 'l' || i == 1 || i == len(name) || name[i] != '.' {
		return -1, name
	}
	l := 0
	for _, c := range name[1:i] {
		l = 10*l + int(c-'0')
	}
	return l, name[i:]
}

// ShiftName returns name moved d layers on: a layer kernel's layer
// number grows by d, any other name stays.
func ShiftName(name string, d int) string {
	l, tail := LayerName(name)
	if d == 0 || l < 0 {
		return name
	}
	return "l" + strconv.Itoa(l+d) + tail
}

// Release drops what the warp holds of a node, keeping its buffers for
// the next node it encodes.
func (w *Warp) Release() {
	clear(w.pending)
	clear(w.kernels)
	clear(w.events)
	clear(w.colls)
	clear(w.tails)
	w.pending, w.kernels, w.events, w.colls, w.tails = w.pending[:0], w.kernels[:0], w.events[:0], w.colls[:0], w.tails[:0]
	w.Forget()
}

// Forget drops the callbacks Know named.
func (w *Warp) Forget() { w.known = w.known[:0] }

// Know names fn, a callback the runtime subscribed to the node's events
// (Event.Observe, Event.OnHost), by tag in the encoding. A state whose
// events hold a callback it does not know does not encode.
func (w *Warp) Know(fn func(simclock.Time), tag uint64) {
	w.known = append(w.known, knownFn{closureID(fn), tag})
}

func (w *Warp) tagOf(fn func(simclock.Time)) (uint64, bool) {
	id := closureID(fn)
	for _, k := range w.known {
		if k.id == id {
			return k.tag, true
		}
	}
	return 0, false
}

// Encoding holds a state encoding. Each encoding is written over the
// one before it, in place, and tells whether it came out the same, so a
// detector comparing a state with the one a period earlier keeps one
// buffer.
type Encoding struct {
	words []uint64
	n     int
	same  bool
}

// Begin starts an encoding over the last one.
func (c *Encoding) Begin() { c.n, c.same = 0, true }

// Put writes the encoding's next word.
func (c *Encoding) Put(v uint64) {
	switch {
	case c.n == len(c.words):
		c.words = append(c.words, v)
		c.same = false
	case c.words[c.n] != v:
		c.words[c.n] = v
		c.same = false
	}
	c.n++
}

// End ends the encoding and reports whether it equals the one before it.
func (c *Encoding) End() bool {
	if c.n != len(c.words) {
		c.words, c.same = c.words[:c.n], false
	}
	return c.same
}

// Words returns the words of the last encoding.
func (c *Encoding) Words() []uint64 { return c.words }

// Reserve makes room for n words, so that encodings up to that length
// allocate once.
func (c *Encoding) Reserve(n int) {
	if cap(c.words) < n {
		c.words = append(make([]uint64, 0, n), c.words...)
	}
}

// encoder writes one state encoding.
type encoder struct {
	w  *Warp
	c  *Encoding
	ok bool
}

func (e *encoder) u(v uint64)        { e.c.Put(v) }
func (e *encoder) i(v int)           { e.c.Put(uint64(v)) }
func (e *encoder) b(v bool)          { e.u(bit(v)) }
func (e *encoder) f(v float64)       { e.u(math.Float64bits(v)) }
func (e *encoder) t(v simclock.Time) { e.u(uint64(v - e.w.now)) }

// small writes small values, each below 4, as one word; a larger one
// fails the encoding.
func (e *encoder) small(vs ...uint64) {
	var w uint64
	for i, v := range vs {
		if v > 3 {
			e.ok = false
		}
		w |= v << (2 * i)
	}
	e.u(w)
}

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// fn writes the name of a closure: the order the encoding first met it.
func (e *encoder) fn(id uintptr) {
	i := slices.Index(e.w.fns, id)
	if i < 0 {
		i = len(e.w.fns)
		e.w.fns = append(e.w.fns, id)
	}
	e.i(i)
}

// ref writes a kernel reference relative to the next kernel id.
func (e *encoder) ref(r kernelRef) {
	if r.id < 0 {
		e.u(math.MaxUint64)
		return
	}
	e.i(r.id - e.w.kid)
	e.i(r.stride)
}

// handle writes a pending event's position and lists it; an event not
// pending writes a marker.
func (e *encoder) handle(h *simclock.Handle, fn simclock.Event) {
	at, seq, ok := h.Pos()
	if !ok {
		e.u(math.MaxUint64)
		return
	}
	e.t(at)
	e.u(seq - e.w.seq)
	e.w.pending = append(e.w.pending, pendingEvent{at, seq, fn, h})
}

// EncodeState writes the node's state, relative to the clock, the
// engine's next sequence number and the next kernel and collective ids,
// to c, and reports false when the state cannot be encoded: an event
// holds a callback the warp does not know, or the node is mid-launch.
// held are the events the runtime holds (nil ones allowed), encoded
// first. Busy-time counters, pools and event counters are not state:
// they change nothing the node does next. The warp keeps the state's
// objects and pending events for Suspend and Shift.
func (n *Node) EncodeState(w *Warp, c *Encoding, held []*Event) bool {
	n.touch()
	n.warpEpoch++
	w.epoch, w.now, w.seq, w.kid, w.cid = n.warpEpoch, n.eng.Now(), n.eng.Seq(), n.nextKernelID, n.nextCollID
	w.pending, w.kernels, w.events, w.colls = w.pending[:0], w.kernels[:0], w.events[:0], w.colls[:0]
	clear(w.tails)
	w.fns, w.tails, w.layers, w.batches = w.fns[:0], w.tails[:0], w.layers[:0], w.batches[:0]
	w.suspended = false
	e := &encoder{w: w, c: c, ok: true}
	for _, ev := range held {
		if ev == nil {
			e.u(math.MaxUint64)
		} else {
			e.event(ev)
		}
	}
	host := n.spec.Host
	e.i(n.nextStreamID)
	e.i(n.failedCount)
	e.i(int(n.collTimeout))
	e.b(n.folded)
	e.b(n.diverged)
	e.b(n.tracer != nil)
	for _, d := range n.devices {
		e.small(bit(d.failed), bit(d.settled && d.settledAt == w.now), bit(d.withLead))
		e.f(d.speed)
		e.f(d.linkFactor)
		e.f(d.computeInUse)
		e.f(d.membwFactor)
		e.f(d.commFactor)
		e.i(d.connRR)
		e.i(int(d.memUsed))
		e.i(d.queueDepth)
		e.i(d.leadDepth)
		e.ref(d.lastFreed)
		if len(d.running) > 0 {
			// With nothing running, the next sample folds no busy time.
			e.t(d.lastSample)
		}
		if d.blockLeft != 0 {
			return false
		}
		for _, c := range d.conns {
			// A delivery chain whose gap has lapsed delays nothing issued
			// from now on: its exact instant is no longer state.
			chains := [2]simclock.Time{c.lastDelivery, c.followerDelivery}
			for _, last := range chains[:1+bit(d.withLead)] {
				if last+host.IssueGap <= w.now+host.LaunchLatency {
					e.u(math.MaxUint64)
				} else {
					e.t(last)
				}
			}
			e.ref(c.lastKernel)
		}
		for _, s := range d.streams {
			e.i(s.priority)
			e.ref(s.lastDone)
			e.u(causeCode(s.advCause))
			e.ref(s.advPred)
			e.i(s.QueueLen())
			for i := s.qhead; i < len(s.queue); i++ {
				cmd := &s.queue[i]
				current := cmd.kind != cmdKernel && cmd.gen == cmd.event.gen
				e.small(uint64(cmd.kind), bit(cmd.leadOnly), bit(cmd.waitRegistered), bit(current))
				e.t(cmd.deliveredAt)
				if d.withLead {
					// Elsewhere followerAt is deliveredAt.
					e.t(cmd.followerAt)
				}
				e.u(cmd.seq - w.seq)
				if cmd.kind == cmdKernel {
					e.kernel(cmd.kernel)
				} else {
					e.event(cmd.event)
				}
			}
			if cmd := s.head(); cmd != nil && !n.eng.Passed(cmd.deliveredAt, cmd.seq) {
				e.handle(&s.deliverH, s.deliverFn)
			}
		}
		e.i(len(d.running))
		for _, k := range d.running {
			e.kernel(k)
		}
		e.i(len(d.pendingAdmission))
		for _, s := range d.pendingAdmission {
			e.i(s.id)
		}
	}
	e.i(len(n.notes))
	for _, note := range n.notes {
		tag, ok := w.tagOf(note.fn)
		if !ok {
			return false
		}
		e.u(tag)
		e.handle(&note.h, note.fireFn)
	}
	return e.ok
}

func causeCode(c string) uint64 {
	switch c {
	case CauseDelivery:
		return 0
	case CauseStream:
		return 1
	case CauseEvent:
		return 2
	}
	return 3
}

// kernel writes k's state, or its name if the encoding met it before.
func (e *encoder) kernel(k *kernelInstance) {
	if k.warpEpoch == e.w.epoch {
		e.u(1)
		e.i(k.warpIdx)
		return
	}
	k.warpEpoch, k.warpIdx = e.w.epoch, len(e.w.kernels)
	e.w.kernels = append(e.w.kernels, k)
	l, tail := LayerName(k.spec.Name)
	if l >= 0 {
		l += k.nameShift
	}
	e.w.tails = append(e.w.tails, tail)
	e.w.layers = append(e.w.layers, l)
	e.w.batches = append(e.w.batches, k.spec.Batch)
	sp := &k.spec
	e.u(0)
	e.small(uint64(sp.Class), uint64(k.state), bit(k.headStamped), bit(k.cancelled != ""),
		bit(k.startedAt != 0), bit(sp.Coll != nil), causeCode(k.headCause))
	e.i(k.id - e.w.kid)
	e.i(k.stride)
	e.i(int(sp.Duration))
	e.f(sp.ComputeDemand)
	e.f(sp.MemBWDemand)
	e.i(sp.Batch)
	e.i(sp.Seq)
	e.i(sp.Req)
	e.fn(closureID(sp.OnDone))
	e.i(k.stream.id)
	e.t(k.issuedAt)
	e.t(k.deliveredAt)
	e.i(int(k.serialized))
	e.ref(k.connPred)
	if k.headStamped {
		e.t(k.headAt)
		e.ref(k.headPred)
	}
	e.ref(k.admitPred)
	if k.state == kRunning {
		e.f(k.remainingNS)
		e.f(k.rate)
		e.t(k.lastUpdate)
		e.t(k.admittedAt)
		if k.startedAt != 0 {
			e.t(k.startedAt)
		}
		e.handle(&k.completion, k.completionFn)
	}
	if c := sp.Coll; c != nil {
		e.coll(c)
	}
}

// coll writes c's state, or its name if the encoding met it before.
func (e *encoder) coll(c *Collective) {
	if c.warpEpoch == e.w.epoch {
		e.u(1)
		e.i(c.warpIdx)
		return
	}
	c.warpEpoch, c.warpIdx = e.w.epoch, len(e.w.colls)
	e.w.colls = append(e.w.colls, c)
	e.u(0)
	e.i(c.id - e.w.cid)
	e.i(c.size)
	e.i(c.joined)
	e.small(bit(c.started), bit(c.done), bit(c.aborted))
	e.i(int(c.timeout))
	e.i(len(c.onAbort))
	for _, fn := range c.onAbort {
		e.fn(closureID(fn))
	}
	e.f(c.remainingNS)
	e.f(c.rate)
	e.t(c.lastUpdate)
	e.i(len(c.members))
	for _, m := range c.members {
		e.kernel(m)
	}
	e.handle(&c.completion, c.completionFn)
	e.handle(&c.timeoutH, c.abortFn)
}

// event writes ev's state, or its name if the encoding met it before.
func (e *encoder) event(ev *Event) {
	if ev.warpEpoch == e.w.epoch {
		e.u(1)
		e.i(ev.warpIdx)
		return
	}
	ev.warpEpoch, ev.warpIdx = e.w.epoch, len(e.w.events)
	e.w.events = append(e.w.events, ev)
	e.u(0)
	e.small(bit(ev.fired), bit(ev.firing), bit(ev.released))
	if ev.fired {
		e.t(ev.firedAt)
	}
	e.ref(ev.firedBy)
	e.i(len(ev.subs))
	for _, sub := range ev.subs {
		if sub.waiter != nil {
			e.u(0)
			e.i(sub.waiter.id)
			continue
		}
		tag, ok := e.w.tagOf(sub.fn)
		if !ok {
			e.ok = false
		}
		e.b(sub.host)
		e.u(1 + tag)
	}
}

// Suspend takes the node's pending events the warp's last encoding
// found off the engine: nothing of the node fires until Shift puts them
// back.
func (n *Node) Suspend(w *Warp) {
	n.touch()
	for _, p := range w.pending {
		p.slot.Cancel()
	}
	w.suspended = true
}

// Period is what one period of a node's steady state does: its length,
// the engine sequence numbers and the kernel and collective ids it takes,
// and what it adds to each device's stats. Advance returns the layers a
// batch's kernels move on by per period.
type Period struct {
	Dt                   simclock.Time
	Seqs                 uint64
	Kernels, Collectives int
	Work                 []DeviceStats
	Advance              func(batch int) int
}

// Shift moves the node k periods p ahead of the state the warp's last
// encoding met, as if it had run them, and puts the events Suspend took
// off back, k periods later: at k = 0 it only puts them back. Under a
// tracer it first re-emits the records of the period before the
// encoding (tape marks from and to, Node.TapeMark), shifted to each
// period skipped.
func (n *Node) Shift(w *Warp, p *Period, k int, from, to int) {
	n.touch()
	if !w.suspended {
		panic("gpusim: Shift without Suspend")
	}
	w.suspended = false
	dt, ds := simclock.Time(k)*p.Dt, uint64(k)*p.Seqs
	dk, dc := k*p.Kernels, k*p.Collectives
	if k > 0 {
		if n.tape != nil {
			n.tape.replay(p, k, from, to)
		}
		n.nextKernelID += dk
		n.nextCollID += dc
		sr := func(r *kernelRef) {
			if r.id >= 0 {
				r.id += dk
			}
		}
		for i, d := range n.devices {
			for j := 0; j < k; j++ {
				d.stats = d.stats.Add(p.Work[i])
			}
			d.lastSample += dt
			d.settledAt += dt
			d.blockNext += dk
			sr(&d.lastFreed)
			for _, c := range d.conns {
				c.lastDelivery += dt
				c.followerDelivery += dt
				sr(&c.lastKernel)
			}
			for _, s := range d.streams {
				sr(&s.lastDone)
				sr(&s.advPred)
				for i := s.qhead; i < len(s.queue); i++ {
					cmd := &s.queue[i]
					cmd.deliveredAt += dt
					cmd.followerAt += dt
					cmd.seq += ds
				}
			}
		}
		for _, kk := range w.kernels {
			kk.id += dk
			kk.issuedAt += dt
			kk.deliveredAt += dt
			kk.headAt += dt
			kk.lastUpdate += dt
			kk.admittedAt += dt
			if kk.startedAt != 0 {
				kk.startedAt += dt
			}
			sr(&kk.connPred)
			sr(&kk.headPred)
			sr(&kk.admitPred)
			kk.nameShift += k * p.Advance(kk.spec.Batch)
		}
		for _, c := range w.colls {
			c.id += dc
			c.lastUpdate += dt
		}
		for _, ev := range w.events {
			if ev.fired {
				ev.firedAt += dt
			}
			sr(&ev.firedBy)
		}
	}
	for _, pe := range w.pending {
		*pe.slot = n.eng.AtSeq(pe.at+dt, pe.seq+ds, pe.fn)
	}
}

// Own returns the sequence numbers the node took and the events of its
// that fired so far: a period in which the engine took and fired no more
// ran nothing but the node.
func (n *Node) Own() (seqs, fired uint64) {
	n.touch()
	return n.seqs, n.fired
}

// TapeMark returns the position of the next record in the node's tape,
// 0 without a tracer, and drops the records before keep, a position an
// earlier call returned, or every record when keep is past them all.
// The tape keeps records only from the first call on, and a negative
// keep drops every record and stops it keeping them.
func (n *Node) TapeMark(keep int) int {
	n.touch()
	t := n.tape
	if t == nil {
		return 0
	}
	t.on = keep >= 0
	if !t.on {
		keep = math.MaxInt
	}
	if drop := min(keep-t.base, len(t.recs)); drop > 0 && 2*drop >= len(t.recs) {
		m := copy(t.recs, t.recs[drop:])
		clear(t.recs[m:])
		t.recs, t.base = t.recs[:m], t.base+drop
	}
	return t.base + len(t.recs)
}

// tape forwards a node's records to its tracer and keeps the recent
// ones, from position base on, for Shift to re-emit.
type tape struct {
	inner Tracer
	recs  []tapeRec
	base  int
	on    bool
}

func (t *tape) add(r tapeRec) {
	if t.on {
		t.recs = append(t.recs, r)
	}
}

type tapeKind uint8

const (
	tSpan tapeKind = iota
	tDep
	tEnqueue
	tRendezvous
	tTransfer
	tFinish
	tAbort
	tRate
	tFailed
	tRecoveryBegin
	tRecoveryEnd
	tQueue
)

// tapeRec is one record: span and dep hold the kernel records, a to d
// and x, y the arguments of the others.
type tapeRec struct {
	kind       tapeKind
	span       KernelSpan
	dep        KernelDep
	a, b, c, d int
	x, y       float64
	at         simclock.Time
}

func (t *tape) KernelSpan(sp KernelSpan) {
	t.add(tapeRec{kind: tSpan, span: sp})
	t.inner.KernelSpan(sp)
}
func (t *tape) KernelDep(dep KernelDep) {
	t.add(tapeRec{kind: tDep, dep: dep})
	t.inner.KernelDep(dep)
}
func (t *tape) CollectiveEnqueue(coll, size, dev int, at simclock.Time) {
	t.add(tapeRec{kind: tEnqueue, a: coll, b: size, c: dev, at: at})
	t.inner.CollectiveEnqueue(coll, size, dev, at)
}
func (t *tape) RendezvousBegin(coll, dev, batch, req int, at simclock.Time) {
	t.add(tapeRec{kind: tRendezvous, a: coll, b: dev, c: batch, d: req, at: at})
	t.inner.RendezvousBegin(coll, dev, batch, req, at)
}
func (t *tape) TransferStart(coll int, at simclock.Time) {
	t.add(tapeRec{kind: tTransfer, a: coll, at: at})
	t.inner.TransferStart(coll, at)
}
func (t *tape) CollectiveFinish(coll int, at simclock.Time) {
	t.add(tapeRec{kind: tFinish, a: coll, at: at})
	t.inner.CollectiveFinish(coll, at)
}
func (t *tape) CollectiveAbort(coll int, at simclock.Time) {
	t.add(tapeRec{kind: tAbort, a: coll, at: at})
	t.inner.CollectiveAbort(coll, at)
}
func (t *tape) RateChange(dev int, speed, link float64, at simclock.Time) {
	t.add(tapeRec{kind: tRate, a: dev, x: speed, y: link, at: at})
	t.inner.RateChange(dev, speed, link, at)
}
func (t *tape) DeviceFailed(dev int, at simclock.Time) {
	t.add(tapeRec{kind: tFailed, a: dev, at: at})
	t.inner.DeviceFailed(dev, at)
}
func (t *tape) RecoveryBegin(at simclock.Time) {
	t.add(tapeRec{kind: tRecoveryBegin, at: at})
	t.inner.RecoveryBegin(at)
}
func (t *tape) RecoveryEnd(at simclock.Time) {
	t.add(tapeRec{kind: tRecoveryEnd, at: at})
	t.inner.RecoveryEnd(at)
}
func (t *tape) QueueDepth(dev, depth int, at simclock.Time) {
	t.add(tapeRec{kind: tQueue, a: dev, b: depth, at: at})
	t.inner.QueueDepth(dev, depth, at)
}

// replay re-emits the records between positions from and to, one
// period, shifted to each of the k periods that follow it, and then
// drops every record kept: the encodings they belong to are stale.
func (t *tape) replay(p *Period, k, from, to int) {
	recs := t.recs[from-t.base : to-t.base]
	id := func(v, dk int) int {
		if v < 0 {
			return v
		}
		return v + dk
	}
	for j := 1; j <= k; j++ {
		dt := simclock.Time(j) * p.Dt
		dk, dc := j*p.Kernels, j*p.Collectives
		for i := range recs {
			r := &recs[i]
			at := r.at + dt
			switch r.kind {
			case tSpan:
				sp := r.span
				sp.ID += dk
				sp.Start += dt
				sp.End += dt
				sp.Coll = id(sp.Coll, dc)
				sp.Name = ShiftName(sp.Name, j*p.Advance(sp.Batch))
				t.inner.KernelSpan(sp)
			case tDep:
				dep := r.dep
				dep.ID += dk
				dep.Coll = id(dep.Coll, dc)
				dep.Issued += dt
				dep.Delivered += dt
				dep.HeadAt += dt
				dep.Admitted += dt
				dep.ConnPred = id(dep.ConnPred, dk)
				dep.HeadPred = id(dep.HeadPred, dk)
				dep.AdmitPred = id(dep.AdmitPred, dk)
				t.inner.KernelDep(dep)
			case tEnqueue:
				t.inner.CollectiveEnqueue(r.a+dc, r.b, r.c, at)
			case tRendezvous:
				t.inner.RendezvousBegin(r.a+dc, r.b, r.c, r.d, at)
			case tTransfer:
				t.inner.TransferStart(r.a+dc, at)
			case tFinish:
				t.inner.CollectiveFinish(r.a+dc, at)
			case tAbort:
				t.inner.CollectiveAbort(r.a+dc, at)
			case tRate:
				t.inner.RateChange(r.a, r.x, r.y, at)
			case tFailed:
				t.inner.DeviceFailed(r.a, at)
			case tRecoveryBegin:
				t.inner.RecoveryBegin(at)
			case tRecoveryEnd:
				t.inner.RecoveryEnd(at)
			case tQueue:
				t.inner.QueueDepth(r.a, r.b, at)
			}
		}
	}
	t.base += len(t.recs)
	clear(t.recs)
	t.recs = t.recs[:0]
}
