package gpusim

import (
	"time"

	"liger/internal/simclock"
)

// Collective is a rendezvous group for a multi-device communication
// kernel (an NCCL-style all-reduce or point-to-point copy). One member
// kernel is launched on a stream of each participating device with the
// same *Collective in its spec. Semantics:
//
//   - a member occupies its device's resources from local admission —
//     NCCL kernels busy-wait on their peers, so a rank that arrives
//     early still holds SMs while it spins;
//   - progress begins only when every member has been admitted;
//   - the group advances at the rate of its slowest member device (the
//     interconnect is driven in lockstep), so contention on any one
//     device slows the whole collective;
//   - all members complete at the same instant.
type Collective struct {
	node *Node
	id   int
	size int

	members []*kernelInstance
	// joined counts the member devices that joined: a member on a folded
	// device counts once per device it stands for.
	joined  int
	started bool
	done    bool
	aborted bool

	// timeout bounds the span from the first member's arrival to group
	// completion (covering both a hung rendezvous and stalled progress);
	// zero disables it. timeoutH is the armed watchdog.
	timeout  time.Duration
	timeoutH simclock.Handle
	onAbort  []func(now simclock.Time)

	remainingNS float64
	rate        float64
	lastUpdate  simclock.Time
	completion  simclock.Handle
	// completionFn and abortFn are the reusable completion and watchdog
	// callbacks, allocated once per pooled group.
	completionFn func(simclock.Time)
	abortFn      func(simclock.Time)
	// scanEpoch marks the last Device.recompute pass that gathered this
	// collective (the epoch-mark dedup).
	scanEpoch uint64
	// warpEpoch and warpIdx name the group in a state encoding
	// (Node.EncodeState).
	warpEpoch uint64
	warpIdx   int
}

// ID returns the collective's node-unique identifier.
func (c *Collective) ID() int { return c.id }

// Size returns the expected member count.
func (c *Collective) Size() int { return c.size }

// Started reports whether all members have joined and progress began.
func (c *Collective) Started() bool {
	c.node.touch()
	return c.started
}

// Aborted reports whether the group was torn down by a timeout instead
// of completing its transfer.
func (c *Collective) Aborted() bool {
	c.node.touch()
	return c.aborted
}

// SetTimeout overrides the node-wide collective timeout for this group
// (zero disables). Must be set before any member is admitted.
func (c *Collective) SetTimeout(d time.Duration) {
	c.node.touch()
	if d < 0 {
		panic("gpusim: negative collective timeout")
	}
	if len(c.members) > 0 {
		panic("gpusim: collective timeout set after a member joined")
	}
	c.timeout = d
}

// OnAbort registers a callback fired at the abort instant, after the
// member kernels were cleaned up. Runtimes use it to mark the owning
// batch failed so the serving layer can retry.
func (c *Collective) OnAbort(fn func(now simclock.Time)) {
	c.node.touch()
	c.onAbort = append(c.onAbort, fn)
}

// join registers an admitted member; the last arrival starts the group.
// A member arriving after the group aborted (its launch was in flight
// when the watchdog fired) is cleaned up immediately: NCCL's equivalent
// is a rank whose kernel observes the communicator abort flag and exits.
func (c *Collective) join(k *kernelInstance, now simclock.Time) {
	if c.done {
		if c.aborted {
			k.startedAt = k.admittedAt
			k.cancelled = CancelCollectiveAbort
			k.stream.dev.finish(k, now)
			// Never listed as a member, so no group loop will recycle it.
			c.node.recycleKernel(k)
			return
		}
		panic("gpusim: member joined a finished collective")
	}
	d := k.stream.dev
	c.members = append(c.members, k)
	c.joined += d.copies()
	if c.joined > c.size {
		panic("gpusim: too many members joined collective")
	}
	if tr := c.node.tracer; tr != nil {
		for r := range d.copies() {
			tr.RendezvousBegin(c.id, d.copyID(r), k.spec.Batch, k.spec.Req, now)
		}
	}
	if len(c.members) == 1 && c.timeout > 0 {
		c.node.evCounts.Collective++
		c.node.seqs++
		c.timeoutH = c.node.eng.After(c.timeout, c.abortFn)
	}
	if c.joined == c.size {
		c.start(now)
	}
}

func (c *Collective) start(now simclock.Time) {
	c.started = true
	c.lastUpdate = now
	// The collective's work is the largest member duration; members of a
	// well-formed collective share one duration.
	for _, m := range c.members {
		if w := float64(m.spec.Duration); w > c.remainingNS {
			c.remainingNS = w
		}
		m.startedAt = now
	}
	if tr := c.node.tracer; tr != nil {
		tr.TransferStart(c.id, now)
	}
	c.refreshRate(now)
}

// refreshRate re-times completion after any member device's contention
// state changed.
func (c *Collective) refreshRate(now simclock.Time) {
	if !c.started || c.done {
		return
	}
	// Fold progress at the old rate.
	elapsed := float64(now - c.lastUpdate)
	c.remainingNS -= elapsed * c.rate
	if c.remainingNS < 0 {
		c.remainingNS = 0
	}
	c.lastUpdate = now

	rate := 1.0
	for _, m := range c.members {
		if r := m.stream.dev.kernelRate(m.spec.Class, m.spec.MemBWDemand); r < rate {
			rate = r
		}
	}
	if rate == c.rate && c.completion != (simclock.Handle{}) {
		return
	}
	c.rate = rate
	c.completion.Cancel()
	delay := completionDelay(c.remainingNS, rate)
	c.node.evCounts.Collective++
	c.node.seqs++
	c.completion = c.node.eng.After(delay, c.completionFn)
}

func (c *Collective) finish(now simclock.Time) {
	if c.done {
		return
	}
	c.done = true
	c.completion.Cancel()
	c.timeoutH.Cancel()
	for _, m := range c.members {
		m.stream.dev.finish(m, now)
	}
	c.release(c.members)
	if tr := c.node.tracer; tr != nil {
		tr.CollectiveFinish(c.id, now)
	}
	c.recycle()
}

// release recycles the finished members once the group's member loop
// is done with them, leaving nil entries behind (a done group never
// reads its members again).
func (c *Collective) release(members []*kernelInstance) {
	for i, m := range members {
		c.node.recycleKernel(m)
		members[i] = nil
	}
}

// abort tears the group down after a watchdog expiry: every joined
// member is finished (resources released, stream advanced) so no
// rendezvous state lingers, and the abort subscribers fire. The member
// kernels "complete" in the CUDA sense — their streams keep going — but
// the transfer never happened, which is what Aborted/OnAbort convey.
func (c *Collective) abort(now simclock.Time) {
	if c.done {
		return
	}
	c.done = true
	c.aborted = true
	c.completion.Cancel()
	c.timeoutH.Cancel()
	// Snapshot: finishing members cascades admissions, and a still-queued
	// member admitted by the cascade re-enters join (late-arrival path),
	// which must not grow the slice under this loop.
	members := c.members
	for _, m := range members {
		if m.startedAt == 0 {
			m.startedAt = m.admittedAt
		}
		// The transfer never happened: the member spans are truncations of
		// an aborted group, not completions.
		m.cancelled = CancelCollectiveAbort
		m.stream.dev.finish(m, now)
	}
	c.release(members)
	if tr := c.node.tracer; tr != nil {
		tr.CollectiveAbort(c.id, now)
	}
	for _, fn := range c.onAbort {
		fn(now)
	}
}

// recycle pools a finished group. Every member joined before the group
// started, so no queued kernel can still reach it. Aborted groups are
// never pooled: one short of members may yet get late joiners. The
// group's state stays readable (Aborted, ID) until NewCollective reuses
// it.
func (c *Collective) recycle() {
	clear(c.onAbort)
	n := c.node
	if n.collHook != nil && !n.collHook(c) {
		return
	}
	n.collFree = append(n.collFree, c)
}
