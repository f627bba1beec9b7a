package gpusim

import (
	"fmt"

	"liger/internal/simclock"
)

type cmdKind int

const (
	cmdKernel cmdKind = iota
	cmdRecord
	cmdWait
)

// command is one entry in a stream's FIFO, held by value in the queue.
// Only the head has a delivery event armed, and it runs the stream's
// deliverFn, so a command carries no callback of its own.
type command struct {
	kind   cmdKind
	kernel *kernelInstance
	event  *Event
	// gen is the event generation a wait command captured.
	gen uint64
	// deliveredAt and seq are the command's delivery position in the
	// engine's (time, seq) order, reserved at issue; an event is armed
	// there only while the command heads its stream (see Stream.issue).
	// On a representative that folds its lead (Node.FoldLed) they are the
	// lead's, and followerAt is the followers' delivery time, no later;
	// elsewhere followerAt is deliveredAt. leadOnly marks a command only
	// the lead issues (RecordLead).
	deliveredAt    simclock.Time
	followerAt     simclock.Time
	seq            uint64
	leadOnly       bool
	waitRegistered bool
}

// Event mirrors a CUDA event: recorded on a stream, it fires once all
// prior work on that stream completes. Other streams can wait on it
// without CPU involvement (inter-stream synchronization, Fig. 8), and
// the host can register a notification callback.
//
// Events are pooled per node. The holder calls Release once it no longer
// needs the event, and the node reuses it only after it has also fired.
// A Wait captures the event's generation, so a wait issued before the
// release completes on the recording it waited for, even if the event is
// recycled and recorded again before the wait reaches its stream's head.
type Event struct {
	node *Node
	// gen counts the event's recycles.
	gen      uint64
	fired    bool
	firing   bool
	released bool
	firedAt  simclock.Time
	// firedBy is the last kernel completed on the recording stream when
	// the event fired (noKernel if none): the predecessor edge a waiting
	// kernel inherits.
	firedBy kernelRef
	subs    []eventSub
	// warpEpoch and warpIdx name the event in a state encoding
	// (Node.EncodeState).
	warpEpoch uint64
	warpIdx   int
}

// eventSub is one same-instant subscription to an event: a stream whose
// head wait the event gates, or a callback, run at the firing instant or
// (host set) on the host after the notification latency.
type eventSub struct {
	waiter *Stream
	fn     func(simclock.Time)
	host   bool
}

// Fired reports whether the event has completed.
func (e *Event) Fired() bool {
	e.node.touch()
	return e.fired
}

// FiredAt returns the completion instant (zero if not fired).
func (e *Event) FiredAt() simclock.Time {
	e.node.touch()
	return e.firedAt
}

// Release hands the event back to its node: the holder will not use it
// again. Subscriptions and waits already registered are unaffected; the
// node reuses the event once it has fired.
func (e *Event) Release() {
	e.node.touch()
	if e.released {
		panic("gpusim: event released twice")
	}
	e.released = true
	if e.fired && !e.firing {
		e.node.recycleEvent(e)
	}
}

func (e *Event) fire(now simclock.Time) {
	if e.fired {
		return
	}
	e.fired, e.firing = true, true
	e.firedAt = now
	// A fired event takes no new subscriptions (they run at once), so the
	// list cannot grow under this loop; a Release from a subscriber
	// defers recycling until the loop is done.
	for _, sub := range e.subs {
		switch {
		case sub.waiter != nil:
			s := sub.waiter
			s.advCause, s.advPred = CauseEvent, e.firedBy
			s.advance(now)
		case sub.host:
			e.node.notifyHost(sub.fn)
		default:
			sub.fn(now)
		}
	}
	clear(e.subs)
	e.subs = e.subs[:0]
	e.firing = false
	if e.released {
		e.node.recycleEvent(e)
	}
}

// onFire registers an immediate (same-instant) callback.
func (e *Event) onFire(fn func(simclock.Time)) {
	if e.fired {
		fn(e.firedAt)
		return
	}
	e.subs = append(e.subs, eventSub{fn: fn})
}

// Observe registers an instrumentation callback invoked at the event's
// completion instant with no host latency. For measurement only — work
// launched from it would bypass the modeled CPU path.
func (e *Event) Observe(fn func(now simclock.Time)) {
	e.node.touch()
	e.onFire(fn)
}

// OnHost invokes fn on the "CPU" once the event completes, adding the
// host notification latency. This is the mechanism behind hybrid
// synchronization's pre-launch trigger (§3.4).
func (e *Event) OnHost(fn func(now simclock.Time)) {
	e.node.touch()
	if e.fired {
		e.node.notifyHost(fn)
		return
	}
	e.subs = append(e.subs, eventSub{fn: fn, host: true})
}

// Stream is a CUDA-like in-order command queue on one device.
type Stream struct {
	node *Node
	dev  *Device
	id   int
	conn *connection
	// queue[qhead:] are the outstanding commands, oldest first. Popping
	// zeroes the slot and advances qhead; the slice resets when it drains
	// and reuses the retired prefix before it would grow. A *command from
	// head points into it, so it must not be held across anything that
	// can issue onto the stream.
	queue    []command
	qhead    int
	priority int
	// deliverFn is the delivery callback armHead schedules for whichever
	// command heads the stream, deliverH the last one it armed.
	deliverFn simclock.Event
	deliverH  simclock.Handle

	// lastDone is the last kernel completed on this stream (noKernel if
	// none); events recorded on the stream inherit it as their firing
	// cause.
	lastDone kernelRef
	// advCause/advPred carry the reason the current advance pass runs
	// (delivery, predecessor finish, event fire) so a kernel's first
	// admission attempt can stamp its head cause for Tracer.KernelDep.
	advCause string
	advPred  kernelRef

	// twins, on a representative's stream, are the matching streams of
	// the devices it stands for, in the order of Device.fold: copy r of
	// the stream's work reports stream twins[r].
	twins []*Stream
}

// copyID returns the id of the stream copy r of s's work runs on.
func (s *Stream) copyID(r int) int {
	if s.twins == nil {
		return s.id
	}
	return s.twins[r].id
}

// SetPriority raises (positive) or lowers the stream's scheduling
// priority. Priority affects only the admission order among kernels
// already delivered to the device — exactly like CUDA stream
// priorities. It does not reorder host→device delivery, which is why
// the paper found priorities insufficient against the communication
// launch lag (§2.3.1).
func (s *Stream) SetPriority(p int) {
	s.node.touch()
	if s.dev.inFold() && p != s.priority {
		panic(fmt.Sprintf("gpusim: SetPriority on stream %d of device %d, which is folded into device %d", s.id, s.dev.id, s.dev.live().id))
	}
	s.priority = p
}

// ID returns the stream's node-unique identifier.
func (s *Stream) ID() int { return s.id }

// DeviceID returns the owning device index.
func (s *Stream) DeviceID() int { return s.dev.id }

// QueueLen reports commands not yet completed.
func (s *Stream) QueueLen() int {
	s.node.touch()
	return len(s.queue) - s.qhead
}

// Idle reports whether the stream has no outstanding work.
func (s *Stream) Idle() bool {
	s.node.touch()
	return s.QueueLen() == 0
}

// issue appends a command, computing its host→device delivery time from
// the stream's launch connection and reserving the delivery's position
// in the engine's order. Only the head command gets a delivery event:
// delivering a command behind the head changes nothing, so advance reads
// such a delivery off the clock once the command reaches the head, and
// arms an event there only if the delivery is still to come.
//
// On a representative that folds its lead, the command is the lead's
// and, unless leadOnly, the followers' too: it takes its place in both
// delivery chains and reserves both sequence numbers the lead-apart
// layout reserves, the lead's first. The lead's is its delivery's.
// issue returns the command's delivery time.
func (s *Stream) issue(cmd command) simclock.Time {
	eng := s.node.eng
	now := eng.Now()
	d := s.dev
	cmd.deliveredAt = d.deliver(&s.conn.lastDelivery, now)
	cmd.followerAt = cmd.deliveredAt
	cmd.seq = eng.Reserve()
	s.node.seqs++
	if cmd.leadOnly {
		d.leadDepth++
	} else if d.withLead {
		cmd.followerAt = d.deliver(&s.conn.followerDelivery, now)
		eng.Reserve()
		s.node.seqs++
	}
	if s.qhead > 0 && 2*s.qhead >= len(s.queue) && len(s.queue) == cap(s.queue) {
		// Full, and at least half of it retired: slide the outstanding
		// commands down instead of growing the slice.
		n := copy(s.queue, s.queue[s.qhead:])
		clear(s.queue[n:])
		s.queue, s.qhead = s.queue[:n], 0
	}
	s.queue = append(s.queue, cmd)
	d.queueDepth++
	if tr := s.node.tracer; tr != nil {
		d.sampleQueue(tr, now, cmd.leadOnly)
	}
	if s.QueueLen() == 1 {
		s.armHead()
	}
	return cmd.deliveredAt
}

// armHead arms the delivery event of the command that just reached the
// head of the stream, unless the clock has already passed the delivery.
//
// A command still to be delivered that the followers of a representative
// that folds its lead got earlier than the lead, because a lead-only
// command's issue gap delayed the lead's, would run earlier on them:
// their timeline leaves the lead's, which the representative runs, and
// the node is marked diverged (Node.Diverged).
func (s *Stream) armHead() {
	cmd := &s.queue[s.qhead]
	eng := s.node.eng
	if eng.Passed(cmd.deliveredAt, cmd.seq) {
		return
	}
	if cmd.followerAt < cmd.deliveredAt {
		s.node.diverged = true
	}
	s.node.evCounts.Stream++
	s.deliverH = eng.AtSeq(cmd.deliveredAt, cmd.seq, s.deliverFn)
}

// Launch enqueues a kernel. The call returns immediately (asynchronous
// launch); execution follows stream order, delivery latency and the
// device's admission policy.
func (s *Stream) Launch(spec KernelSpec) {
	s.node.touch()
	if spec.ComputeDemand < 0 || spec.MemBWDemand < 0 || spec.Duration < 0 {
		panic("gpusim: negative kernel demand or duration")
	}
	d := s.dev
	k := s.node.newKernel()
	k.spec, k.stream = spec, s
	switch {
	case d.fold != nil:
		if d.blockLeft == 0 {
			panic(fmt.Sprintf("gpusim: launch on representative device %d outside a ReserveBlock block", d.id))
		}
		k.id, k.stride = d.blockNext, d.blockStride
		d.blockNext++
		d.blockLeft--
	case d.rep != nil:
		panic(fmt.Sprintf("gpusim: launch on device %d, which is folded into device %d", d.id, d.rep.id))
	default:
		k.id = s.node.nextKernelID
		s.node.nextKernelID++
	}
	k.connPred, k.headPred, k.admitPred = s.conn.lastKernel, noKernel, noKernel
	if c := spec.Coll; c != nil {
		if tr := s.node.tracer; tr != nil {
			now := s.node.eng.Now()
			for r := range d.copies() {
				tr.CollectiveEnqueue(c.id, c.size, d.copyID(r), now)
			}
		}
	}
	// Dependency bookkeeping for Tracer.KernelDep: the issue instant,
	// the part of the delivery delay the connection's issue gap added on
	// top of the base launch latency, and the serialization predecessor.
	k.deliveredAt = s.issue(command{kind: cmdKernel, kernel: k})
	k.issuedAt = s.node.eng.Now()
	if ser := k.deliveredAt - (k.issuedAt + s.node.spec.Host.LaunchLatency); ser > 0 {
		k.serialized = ser
	}
	s.conn.lastKernel = k.ref()
}

// Record enqueues an event-record command and returns the event, which
// the caller should Release once done with it.
func (s *Stream) Record() *Event {
	s.node.touch()
	return s.record(false)
}

// RecordLead is Record for the lead of an SPMD group alone, such as the
// pre-launch trigger of hybrid synchronization (§3.4). On a
// representative that folds its group's lead (Node.FoldLed), only the
// lead's copy issues it: it takes a place in the lead's delivery chain
// and not in the followers'. On a device of its own it is Record.
func (s *Stream) RecordLead() *Event {
	s.node.touch()
	if d := s.dev; d.fold != nil && !d.withLead {
		panic(fmt.Sprintf("gpusim: RecordLead on representative device %d, whose group has no lead", d.id))
	}
	return s.record(s.dev.withLead)
}

func (s *Stream) record(leadOnly bool) *Event {
	ev := s.node.newEvent()
	s.issue(command{kind: cmdRecord, event: ev, leadOnly: leadOnly})
	return ev
}

// Wait enqueues a wait: subsequent commands on s do not execute until ev
// fires. This is pure inter-stream synchronization — no CPU round trip.
// The wait is bound to the current recording of ev: it may be released
// right after this call.
func (s *Stream) Wait(ev *Event) {
	s.node.touch()
	s.issue(command{kind: cmdWait, event: ev, gen: ev.gen})
}

// head returns the oldest incomplete command, or nil. The pointer is
// into the queue: copy what is needed before anything that can issue
// onto the stream.
func (s *Stream) head() *command {
	if s.qhead == len(s.queue) {
		return nil
	}
	return &s.queue[s.qhead]
}

// headKernelDelivery is used for deterministic admission ordering.
func (s *Stream) headKernelDelivery() simclock.Time {
	if cmd := s.head(); cmd != nil {
		return cmd.deliveredAt
	}
	return 0
}

// pop removes the head command, zeroing its slot so the queue keeps no
// kernel or event reachable. Callers must copy any command fields they
// still need (e.g. the record event) before popping.
func (s *Stream) pop() {
	leadOnly := s.queue[s.qhead].leadOnly
	s.queue[s.qhead] = command{}
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue, s.qhead = s.queue[:0], 0
	} else {
		s.armHead()
	}
	s.dev.queueDepth--
	if leadOnly {
		s.dev.leadDepth--
	}
	if tr := s.node.tracer; tr != nil {
		s.dev.sampleQueue(tr, s.node.eng.Now(), leadOnly)
	}
}

// completeHead is called by the device when the head kernel finishes.
func (s *Stream) completeHead(now simclock.Time) {
	if cmd := s.head(); cmd != nil && cmd.kind == cmdKernel && cmd.kernel.state == kDone {
		s.lastDone = cmd.kernel.ref()
		s.pop()
	}
	// Whatever runs next on this stream was released by the finished
	// predecessor (program order).
	s.advCause, s.advPred = CauseStream, s.lastDone
	s.advance(now)
}

// advance processes as many head commands as are currently eligible.
func (s *Stream) advance(now simclock.Time) {
	for {
		cmd := s.head()
		if cmd == nil || !s.node.eng.Passed(cmd.deliveredAt, cmd.seq) {
			return
		}
		switch cmd.kind {
		case cmdRecord:
			// Firing can issue onto s, moving cmd.
			ev := cmd.event
			ev.firedBy = s.lastDone
			s.pop()
			ev.fire(now)
		case cmdWait:
			// A recycled event fired on the generation the wait captured.
			if ev := cmd.event; ev.fired || ev.gen != cmd.gen {
				s.pop()
				continue
			}
			if !cmd.waitRegistered {
				cmd.waitRegistered = true
				// Subscribe the stream itself rather than a fresh closure.
				cmd.event.subs = append(cmd.event.subs, eventSub{waiter: s})
			}
			return
		case cmdKernel:
			// The abort and OnDone below can issue onto s, moving cmd.
			k := cmd.kernel
			switch k.state {
			case kQueued:
				// First admission attempt: the kernel just reached the head
				// of its stream with all prior work retired. Stamp what got
				// it here — the head cause of its KernelDep record.
				if !k.headStamped {
					k.headStamped = true
					k.headAt = now
					k.headCause = s.advCause
					k.headPred = s.advPred
				}
				if s.dev.failed {
					// The device is gone: the kernel cancels instead of
					// executing, and a collective it would have joined can
					// never complete its rendezvous — abort it now so members
					// on surviving devices release instead of hanging.
					k.state = kDone
					k.startedAt = now
					k.finishedAt = now
					// The kernel never ran; report a zero-length truncated span
					// so traces account for it instead of silently dropping it.
					k.cancelled = CancelDeviceFail
					s.dev.emitSpan(k, now)
					s.pop()
					if c := k.spec.Coll; c != nil {
						c.abort(now)
					}
					if k.spec.OnDone != nil {
						k.spec.OnDone(now, s.dev.copies())
					}
					s.node.recycleKernel(k)
					continue
				}
				if !s.dev.tryAdmit(s, k, now) {
					s.dev.queueForAdmission(s)
				}
				return
			case kRunning:
				return
			case kDone:
				s.lastDone = k.ref()
				s.pop()
			}
		}
	}
}
