package gpusim

import (
	"fmt"
	"math"
	"sort"

	"liger/internal/simclock"
)

const admitEpsilon = 1e-9

// connection models one host→device launch queue. Commands issued on a
// connection are delivered in order: delivery time is the later of
// (issue time + launch latency) and (previous delivery + issue gap),
// which reproduces both the ~5 µs asynchronous launch cost and the
// serialization a burst of launches suffers on a shared queue.
type connection struct {
	id           int
	lastDelivery simclock.Time
	// lastKernel is the last kernel command delivered on this connection
	// (noKernel if none): the launch-queue serialization edge reported to
	// DepTracer.
	lastKernel kernelRef
}

// DeviceStats aggregates utilization over the run; all durations are in
// virtual time.
type DeviceStats struct {
	// ComputeBusy is time with at least one compute kernel resident.
	ComputeBusy simclock.Time
	// CommBusy is time with at least one communication kernel resident.
	CommBusy simclock.Time
	// OverlapBusy is time with both classes resident simultaneously —
	// the interleaving Liger creates.
	OverlapBusy simclock.Time
	// KernelsRun counts completed kernels.
	KernelsRun int
}

// Add returns the field-wise sum of s and o.
func (s DeviceStats) Add(o DeviceStats) DeviceStats {
	return DeviceStats{
		ComputeBusy: s.ComputeBusy + o.ComputeBusy,
		CommBusy:    s.CommBusy + o.CommBusy,
		OverlapBusy: s.OverlapBusy + o.OverlapBusy,
		KernelsRun:  s.KernelsRun + o.KernelsRun,
	}
}

// Device is one simulated GPU.
type Device struct {
	node    *Node
	id      int
	conns   []*connection
	streams []*Stream

	running      []*kernelInstance
	computeInUse float64
	// membwFactor is the current slowdown (>=1) from bandwidth
	// oversubscription. commFactor is the communication-kernel slowdown
	// derived from it (see classFactor), recomputed only when
	// membwFactor changes.
	membwFactor float64
	commFactor  float64

	// pendingAdmission holds streams whose head kernel was delivered but
	// did not fit under the left-over policy, kept sorted in admission
	// order (priority, then head delivery time, then stream id).
	pendingAdmission []*Stream

	// collScratch is reused by recompute to gather the distinct
	// collectives of the running set without allocating.
	collScratch []*Collective

	connRR int

	memCapacity int64
	memUsed     int64

	// speed scales every kernel's progress rate on this device;
	// values below 1 model a straggler GPU (thermal throttling, a
	// noisy neighbour, or — near zero — a dropped device).
	speed float64
	// linkFactor additionally scales communication-kernel progress on
	// this device; values below 1 model a degraded NVLink/PCIe link,
	// values near zero a hung collective. Collectives advance at the
	// slowest member's rate, so one bad link stalls the whole group.
	linkFactor float64

	// failed marks a permanently removed device (Node.FailDevice). A
	// failed device admits nothing: delivered kernels cancel instead of
	// executing, and collectives they would have joined abort.
	failed bool

	// queueDepth counts commands issued to this device's streams and not
	// yet retired — the launch-queue backlog sampled to QueueTracer.
	queueDepth int

	// lastFreed is the last kernel to finish on this device: the
	// capacity predecessor a blocked admission inherits.
	lastFreed kernelRef

	stats      DeviceStats
	lastSample simclock.Time

	// settled records that recompute ran at settledAt and nothing it
	// reads (the running set, speed, link factor) changed since, so a
	// pass at the same instant would change nothing. Every write to
	// running, speed or linkFactor must clear it, or a later pass at the
	// same instant keeps stale rates.
	settled   bool
	settledAt simclock.Time

	// Folding (see Node.Fold). A representative's fold lists the devices
	// it stands for in id order, itself last; it runs their identical
	// work once, with their multiplicity. A device folded into a
	// representative has rep set and runs nothing itself.
	fold []*Device
	rep  *Device
	// The representative's current block of kernel ids (ReserveBlock):
	// the next id its own copy takes, how many launches the block has
	// left, and the id stride between the copies.
	blockNext, blockLeft, blockStride int
}

func newDevice(n *Node, id, conns int) *Device {
	d := &Device{node: n, id: id, membwFactor: 1, commFactor: 1, speed: 1, linkFactor: 1,
		lastFreed: noKernel, memCapacity: int64(n.spec.GPU.MemGB * 1e9)}
	for i := 0; i < conns; i++ {
		d.conns = append(d.conns, &connection{id: i, lastKernel: noKernel})
	}
	return d
}

// copies returns how many devices d's work stands for: its fold
// multiplicity, 1 on an unfolded device.
func (d *Device) copies() int {
	if d.fold == nil {
		return 1
	}
	return len(d.fold)
}

// copyID returns the id of the device copy r of d's work runs on.
func (d *Device) copyID(r int) int {
	if d.fold == nil {
		return d.id
	}
	return d.fold[r].id
}

// live returns the device whose state d reports: its representative when
// d is folded into one, else d itself.
func (d *Device) live() *Device {
	if d.rep != nil {
		return d.rep
	}
	return d
}

// inFold reports whether d is part of a folded group, as its
// representative or as a device folded into one.
func (d *Device) inFold() bool { return d.fold != nil || d.rep != nil }

// diverge records a per-device change (op names the call). Before the
// node decides on folding, it keeps the node unfolded; afterwards it
// panics on a folded device, whose state is shared with its group.
func (d *Device) diverge(op string) {
	if d.inFold() {
		panic(fmt.Sprintf("gpusim: %s on device %d, which is folded into device %d: "+
			"a folded device cannot diverge once the run has started", op, d.id, d.live().id))
	}
	if !d.node.foldDecided {
		d.node.asym = true
	}
}

// pristine reports whether d has never run or queued anything: its state
// is the fresh state every device starts in.
func (d *Device) pristine() bool {
	if d.failed || d.queueDepth != 0 || len(d.running) != 0 || d.lastFreed != noKernel ||
		d.stats != (DeviceStats{}) || d.speed != 1 || d.linkFactor != 1 {
		return false
	}
	for _, c := range d.conns {
		if c.lastKernel != noKernel || c.lastDelivery != 0 {
			return false
		}
	}
	for _, s := range d.streams {
		if s.lastDone != noKernel {
			return false
		}
	}
	return true
}

// sameLayout reports whether d's streams match o's one for one in
// launch connection and priority, and d holds as much memory as o.
func (d *Device) sameLayout(o *Device) bool {
	if len(d.streams) != len(o.streams) || len(d.conns) != len(o.conns) ||
		d.memUsed != o.memUsed || d.memCapacity != o.memCapacity || d.connRR != o.connRR {
		return false
	}
	for i, s := range d.streams {
		if s.conn.id != o.streams[i].conn.id || s.priority != o.streams[i].priority {
			return false
		}
	}
	return true
}

// sampleQueue reports d's launch-queue depth to qt, once per device its
// work stands for.
func (d *Device) sampleQueue(qt QueueTracer, now simclock.Time) {
	for r := range d.copies() {
		qt.QueueDepth(d.copyID(r), d.queueDepth, now)
	}
}

// ReserveBlock reserves the kernel ids of a representative's next n
// launches: one contiguous block of n ids per device it stands for,
// as if each device launched the same n kernels in turn, in id order.
// The representative's own launches take the last block, and copy r of
// launch j gets id base + r*n + j. Every launch onto a representative
// must fall in a block, and a block must be used up before the next.
func (d *Device) ReserveBlock(n int) {
	if d.fold == nil {
		panic(fmt.Sprintf("gpusim: ReserveBlock on device %d, which is not a representative", d.id))
	}
	if d.blockLeft != 0 {
		panic(fmt.Sprintf("gpusim: device %d reserves a block with %d launches of the last one left", d.id, d.blockLeft))
	}
	if n < 1 {
		panic("gpusim: empty kernel block")
	}
	node := d.node
	d.blockNext = node.nextKernelID + (len(d.fold)-1)*n
	d.blockLeft, d.blockStride = n, n
	node.nextKernelID += len(d.fold) * n
}

// ID returns the device index within the node.
func (d *Device) ID() int { return d.id }

// SetSpeed sets the device's progress-rate multiplier (1 is nominal,
// 0.8 models a 20% straggler). Must be called from an engine callback
// or before the simulation starts; it applies immediately to every
// resident kernel and to collectives with a member on this device, so
// mid-run changes model transient throttling faithfully.
func (d *Device) SetSpeed(f float64) {
	if f <= 0 {
		panic("gpusim: device speed must be positive")
	}
	d.diverge("SetSpeed")
	if d.failed || f == d.speed {
		// Speed transitions scheduled before a permanent failure may still
		// fire after it; a dead device has no rate to change.
		return
	}
	d.speed = f
	d.node.healthChanges++
	d.settled = false
	now := d.node.eng.Now()
	if ft := d.node.faultTracer; ft != nil {
		ft.RateChange(d.id, d.speed, d.linkFactor, now)
	}
	d.recompute(now)
}

// Speed returns the progress-rate multiplier.
func (d *Device) Speed() float64 { return d.speed }

// SetLinkFactor sets the communication-rate multiplier (1 is nominal;
// 0.3 models a link running at 30% bandwidth). Like SetSpeed it must be
// called from an engine callback or before the simulation starts and
// applies immediately — including to in-flight collectives, which take
// the slowest member's rate.
func (d *Device) SetLinkFactor(f float64) {
	if f <= 0 || f > 1 {
		panic("gpusim: link factor must be in (0, 1]")
	}
	d.diverge("SetLinkFactor")
	if d.failed || f == d.linkFactor {
		return
	}
	d.linkFactor = f
	d.node.healthChanges++
	d.settled = false
	now := d.node.eng.Now()
	if ft := d.node.faultTracer; ft != nil {
		ft.RateChange(d.id, d.speed, d.linkFactor, now)
	}
	d.recompute(now)
}

// LinkFactor returns the communication-rate multiplier.
func (d *Device) LinkFactor() float64 { return d.linkFactor }

// HealthFactor is the modeled health-telemetry probe (what NVML/DCGM
// clock-throttle and link counters expose on real nodes): the combined
// progress multiplier a scheduler may observe to detect degradation.
func (d *Device) HealthFactor() float64 {
	if d.failed {
		return 0
	}
	h := d.speed
	if d.linkFactor < h {
		h = d.linkFactor
	}
	return h
}

// Failed reports whether the device has been permanently removed.
func (d *Device) Failed() bool { return d.failed }

// nextConn returns the next connection index round-robin.
func (d *Device) nextConn() int {
	c := d.connRR % len(d.conns)
	d.connRR++
	return c
}

// ComputeInUse reports the SM fraction currently allocated.
func (d *Device) ComputeInUse() float64 { return d.live().computeInUse }

// RunningKernels reports how many kernels are resident.
func (d *Device) RunningKernels() int { return len(d.live().running) }

// sample folds elapsed busy time into the counters. Must be called
// before the running set changes.
func (d *Device) sample(now simclock.Time) {
	dt := now - d.lastSample
	if dt > 0 {
		var comp, comm bool
		for _, k := range d.running {
			switch k.spec.Class {
			case Compute:
				comp = true
			case Comm:
				comm = true
			}
		}
		if comp {
			d.stats.ComputeBusy += dt
		}
		if comm {
			d.stats.CommBusy += dt
		}
		if comp && comm {
			d.stats.OverlapBusy += dt
		}
	}
	d.lastSample = now
}

func (d *Device) statsAt(now simclock.Time) DeviceStats {
	d.sample(now)
	return d.stats
}

// deliver computes the delivery time of a command issued now on conn.
func (d *Device) deliver(conn *connection, now simclock.Time) simclock.Time {
	host := d.node.spec.Host
	at := now + host.LaunchLatency
	if min := conn.lastDelivery + host.IssueGap; at < min {
		at = min
	}
	conn.lastDelivery = at
	return at
}

// tryAdmit attempts to start the head kernel of stream s under the
// left-over policy: the kernel starts only if the residual SM pool
// covers its demand. Returns false if it must wait for capacity.
func (d *Device) tryAdmit(s *Stream, k *kernelInstance, now simclock.Time) bool {
	if d.failed || d.computeInUse+k.spec.ComputeDemand > 1+admitEpsilon {
		return false
	}
	d.sample(now)
	d.computeInUse += k.spec.ComputeDemand
	d.running = append(d.running, k)
	d.settled = false
	k.state = kRunning
	k.admittedAt = now
	k.lastUpdate = now
	k.remainingNS = float64(k.spec.Duration)
	k.rate = 0 // set by recompute / collective join below
	d.emitDep(k, now)
	if k.spec.Coll != nil {
		k.spec.Coll.join(k, now)
	} else {
		k.startedAt = now
		if tr := d.node.tracer; tr != nil {
			for r := range d.copies() {
				tr.KernelStart(d.copyID(r), k.spec.Name, k.spec.Class, now)
			}
		}
	}
	d.recompute(now)
	return true
}

// emitDep reports the admitted kernel's causal launch record to the
// DepTracer, once per device its copies run on. A kernel admitted later
// than its first head attempt sat blocked on SM capacity; the last
// finish on the device is what freed it.
func (d *Device) emitDep(k *kernelInstance, now simclock.Time) {
	dt := d.node.depTracer
	if dt == nil {
		return
	}
	if !k.headStamped {
		k.headStamped = true
		k.headAt = now
		k.headCause = CauseDelivery
	}
	if now > k.headAt {
		k.admitPred = d.lastFreed
	}
	coll := -1
	if k.spec.Coll != nil {
		coll = k.spec.Coll.id
	}
	m := d.copies()
	for r := range m {
		back := m - 1 - r
		dt.KernelDep(KernelDep{
			ID: k.ref().copyID(back), Device: d.copyID(r), Stream: k.stream.copyID(r), Coll: coll,
			Issued: k.issuedAt, Delivered: k.deliveredAt,
			Serialized: k.serialized, ConnPred: k.connPred.copyID(back),
			HeadAt: k.headAt, HeadCause: k.headCause, HeadPred: k.headPred.copyID(back),
			Admitted: now, AdmitPred: k.admitPred.copyID(back),
		})
	}
}

// admitBefore is the deterministic admission order of blocked streams:
// priority, then head-kernel delivery time, then stream id. Both keys
// are fixed while a stream is queued (the head command cannot change
// until it is admitted, and priorities are set at stream creation), so
// insertion order equals re-sort order.
func admitBefore(a, b *Stream) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	ha, hb := a.headKernelDelivery(), b.headKernelDelivery()
	if ha != hb {
		return ha < hb
	}
	return a.id < b.id
}

// queueForAdmission registers a stream whose head kernel is blocked on
// capacity, keeping the pending list sorted (sorted insert replaces the
// former full re-sort on every kernel finish).
func (d *Device) queueForAdmission(s *Stream) {
	for _, q := range d.pendingAdmission {
		if q == s {
			return
		}
	}
	i := sort.Search(len(d.pendingAdmission), func(i int) bool {
		return admitBefore(s, d.pendingAdmission[i])
	})
	d.pendingAdmission = append(d.pendingAdmission, nil)
	copy(d.pendingAdmission[i+1:], d.pendingAdmission[i:])
	d.pendingAdmission[i] = s
}

// admitPending retries blocked streams in deterministic order (delivery
// time, then stream id). Later small kernels may bypass an earlier big
// one, as concurrent kernel execution on real devices allows.
func (d *Device) admitPending(now simclock.Time) {
	if len(d.pendingAdmission) == 0 {
		return
	}
	still := d.pendingAdmission[:0]
	for _, s := range d.pendingAdmission {
		cmd := s.head()
		if cmd == nil || cmd.kind != cmdKernel || cmd.kernel.state != kQueued {
			continue // stream advanced some other way
		}
		if d.tryAdmit(s, cmd.kernel, now) {
			continue
		}
		still = append(still, s)
	}
	for i := len(still); i < len(d.pendingAdmission); i++ {
		d.pendingAdmission[i] = nil
	}
	d.pendingAdmission = still
}

// finish completes a kernel: releases resources, advances the stream,
// retries blocked admissions and refreshes rates.
func (d *Device) finish(k *kernelInstance, now simclock.Time) {
	if k.state != kRunning {
		return
	}
	d.sample(now)
	k.state = kDone
	k.finishedAt = now
	k.completion.Cancel()
	d.computeInUse -= k.spec.ComputeDemand
	if d.computeInUse < 0 {
		d.computeInUse = 0
	}
	for i, r := range d.running {
		if r == k {
			d.running = append(d.running[:i], d.running[i+1:]...)
			break
		}
	}
	d.settled = false
	d.stats.KernelsRun++
	d.lastFreed = k.ref()
	d.emitSpan(k, now)
	k.stream.completeHead(now)
	d.admitPending(now)
	d.recompute(now)
	if k.spec.OnDone != nil {
		k.spec.OnDone(now, d.copies())
	}
	if k.spec.Coll == nil {
		// Collective members stay listed in their group until its member
		// loop ends; the group recycles them (Collective.release).
		d.node.recycleKernel(k)
	}
}

// emitSpan reports a finishing kernel to the tracer, once per device
// its copies run on: SpanTracer implementations get the full span
// (metadata plus the truncation flag); plain tracers get the legacy
// KernelEnd callback.
func (d *Device) emitSpan(k *kernelInstance, end simclock.Time) {
	if d.node.tracer == nil {
		return
	}
	m := d.copies()
	if st := d.node.spanTracer; st != nil {
		coll := -1
		if k.spec.Coll != nil {
			coll = k.spec.Coll.id
		}
		for r := range m {
			st.KernelSpan(KernelSpan{
				ID: k.ref().copyID(m - 1 - r), Device: d.copyID(r), Name: k.spec.Name, Class: k.spec.Class,
				Start: k.startedAt, End: end,
				Batch: k.spec.Batch, Req: k.spec.Req, Coll: coll,
				Cancelled: k.cancelled,
			})
		}
		return
	}
	for r := range m {
		d.node.tracer.KernelEnd(d.copyID(r), k.spec.Name, k.spec.Class, k.startedAt, end)
	}
}

// drainFailed tears down a freshly failed device's resident work.
// Collective members abort their whole group (the watchdog teardown
// path, so survivors' members release immediately), plain kernels
// finish at the failure instant, blocked admissions are dropped, and
// every stream re-advances so its delivered backlog cancels through
// the failed-device path in Stream.advance.
func (d *Device) drainFailed(now simclock.Time) {
	d.sample(now)
	for len(d.running) > 0 {
		k := d.running[0]
		if c := k.spec.Coll; c != nil {
			c.abort(now)
			continue
		}
		// The kernel was mid-execution when the device died: its span is
		// truncated at the failure instant, not a completion.
		k.cancelled = CancelDeviceFail
		d.finish(k, now)
	}
	for i := range d.pendingAdmission {
		d.pendingAdmission[i] = nil
	}
	d.pendingAdmission = d.pendingAdmission[:0]
	for _, s := range d.streams {
		s.advance(now)
	}
}

// recompute refreshes the contention state after the running set
// changed: memory-bandwidth oversubscription slows every memory-using
// kernel by the oversubscription factor — communication kernels by the
// factor raised to the node's CommBWSensitivity, since pipelined
// collectives amplify memory stalls into interconnect bubbles (§2.3.2);
// collectives take the slowest member device's rate.
//
// A second pass at the same instant with nothing changed returns at
// once: it would fold zero elapsed time and find every rate unchanged.
// The collectives it skips are current too, since a change on another
// member device refreshes them through that device's own pass.
func (d *Device) recompute(now simclock.Time) {
	if d.settled && d.settledAt == now {
		return
	}
	d.settled, d.settledAt = true, now
	var bw float64
	for _, k := range d.running {
		bw += k.spec.MemBWDemand
	}
	factor := 1.0
	if bw > 1 {
		factor = bw
	}
	if factor != d.membwFactor {
		d.membwFactor = factor
		d.commFactor = factor
		if s := d.node.spec.Contention.CommBWSensitivity; s > 0 && factor > 1 {
			d.commFactor = math.Pow(factor, s)
		}
	}

	// Epoch-mark dedup of the running set's collectives: each recompute
	// pass gets a fresh node-wide epoch, and a collective is gathered the
	// first time the pass sees it — O(n) instead of the former O(n²)
	// membership scan.
	d.node.collEpoch++
	epoch := d.node.collEpoch
	colls := d.collScratch[:0]
	for _, k := range d.running {
		if c := k.spec.Coll; c != nil {
			if c.scanEpoch != epoch {
				c.scanEpoch = epoch
				colls = append(colls, c)
			}
			continue
		}
		d.setKernelRate(k, d.kernelRate(k.spec.Class, k.spec.MemBWDemand), now)
	}
	for _, c := range colls {
		c.refreshRate(now)
	}
	for i := range colls {
		colls[i] = nil
	}
	d.collScratch = colls[:0]
}

// kernelRate is the progress rate a kernel of the given class and
// memory-bandwidth demand gets on this device right now: the device
// speed, divided by the contention slowdown when the kernel uses memory
// bandwidth, scaled by the link factor for communication kernels.
func (d *Device) kernelRate(class KernelClass, membw float64) float64 {
	rate := d.speed
	if membw > 0 {
		rate = d.speed / d.classFactor(class)
	}
	if class == Comm && d.linkFactor < 1 {
		rate *= d.linkFactor
	}
	return rate
}

// classFactor returns the slowdown applied to a kernel class under the
// current bandwidth oversubscription: the factor itself for compute,
// the factor raised to CommBWSensitivity for communication (cached in
// commFactor by recompute).
func (d *Device) classFactor(class KernelClass) float64 {
	if d.membwFactor <= 1 {
		return 1
	}
	if class == Comm {
		return d.commFactor
	}
	return d.membwFactor
}

// setKernelRate re-times a local kernel's completion under a new rate.
func (d *Device) setKernelRate(k *kernelInstance, rate float64, now simclock.Time) {
	k.updateProgress(now)
	if k.rate == rate && k.completion != (simclock.Handle{}) {
		return
	}
	k.rate = rate
	k.completion.Cancel()
	delay := completionDelay(k.remainingNS, rate)
	d.node.evCounts.Device++
	k.completion = d.node.eng.After(delay, k.completionFn)
}
