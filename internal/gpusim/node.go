// Package gpusim is a discrete-event simulator of an NVIDIA-style
// multi-GPU node. It models the pieces of the platform that Liger's
// scheduling depends on (§2):
//
//   - devices with a finite SM pool and finite HBM bandwidth, running
//     kernels concurrently under a left-over admission policy;
//   - CUDA-like streams with in-order execution, events, inter-stream
//     waits, and host notification;
//   - host→device launch connections (CUDA_DEVICE_MAX_CONNECTIONS) with
//     realistic launch latency and issue serialization;
//   - collective kernels with rendezvous semantics: members occupy
//     resources from local admission (as NCCL's busy-waiting kernels do)
//     and progress only once every rank has joined;
//   - a contention engine: when the memory-bandwidth demands of resident
//     kernels oversubscribe the device, every memory-using kernel slows
//     down proportionally — this is the phenomenon the paper's
//     contention factors anticipate (§3.5).
//
// The simulator knows nothing about transformers or Liger; it executes
// whatever kernels the runtimes launch and reports precise timing.
package gpusim

import (
	"fmt"
	"slices"
	"time"

	"liger/internal/hw"
	"liger/internal/simclock"
)

// Tracer receives the node's observability records: kernel spans and
// dependency edges, the collective lifecycle, fault transitions and
// launch-queue depth. trace.Recorder implements it. Implementations
// must not mutate simulator state.
type Tracer interface {
	// KernelSpan reports every kernel completion, including the
	// cancellations of work torn down by a failure or an abort (kernels
	// that never ran get a zero-length span).
	KernelSpan(sp KernelSpan)
	// KernelDep reports one KernelDep record per admitted kernel, at its
	// admission instant. Kernels cancelled before admission (delivered
	// to an already-failed device) emit only their truncated KernelSpan.
	KernelDep(dep KernelDep)

	// The collective lifecycle: member enqueue on a stream, per-member
	// rendezvous wait (admitted, spinning for peers), the transfer start
	// once every rank joined, and the group's completion or abort.
	CollectiveEnqueue(coll, size, dev int, at simclock.Time)
	// RendezvousBegin fires when a member is admitted and starts
	// busy-waiting for its peers; the wait ends at the group's
	// TransferStart (or CollectiveAbort). Batch/Req mirror the member
	// kernel's scheduling metadata.
	RendezvousBegin(coll, dev, batch, req int, at simclock.Time)
	TransferStart(coll int, at simclock.Time)
	CollectiveFinish(coll int, at simclock.Time)
	CollectiveAbort(coll int, at simclock.Time)

	// RateChange fires whenever a device's speed or link factor changes
	// (a fault window opening or closing).
	RateChange(dev int, speed, link float64, at simclock.Time)
	// DeviceFailed fires when a device is permanently removed.
	DeviceFailed(dev int, at simclock.Time)
	// RecoveryBegin / RecoveryEnd bracket a runtime reconfiguration
	// (failover epoch): emitted by the runtimes through Node.Tracer.
	RecoveryBegin(at simclock.Time)
	RecoveryEnd(at simclock.Time)

	// QueueDepth samples a device's launch-queue depth (commands issued
	// to its streams and not yet retired) on every change.
	QueueDepth(dev, depth int, at simclock.Time)
}

// KernelSpan is the full record of one kernel execution, including the
// scheduling metadata (batch, request, collective) and whether the span
// was truncated by a cancellation instead of completing its work.
type KernelSpan struct {
	// ID is the node-unique kernel id (assigned in launch order), the
	// join key against KernelDep records.
	ID     int
	Device int
	Name   string
	Class  KernelClass
	Start  simclock.Time
	End    simclock.Time
	// Batch and Req carry the scheduling metadata of the launch
	// (KernelSpec.Batch / KernelSpec.Req); Req is -1 when the launch was
	// not tagged with a serving-layer request.
	Batch int
	Req   int
	// Coll is the collective id the kernel belonged to, -1 for local
	// kernels.
	Coll int
	// Cancelled is empty for a kernel that completed its work; otherwise
	// it names the teardown that truncated the span (CancelDeviceFail,
	// CancelCollectiveAbort). End is then the cancel instant.
	Cancelled string
}

// Cancel reasons reported in KernelSpan.Cancelled.
const (
	// CancelDeviceFail marks work torn down by a permanent device
	// failure (in-flight kernels truncated at the failure instant,
	// delivered-but-unstarted kernels cancelled with a zero-length span).
	CancelDeviceFail = "device-fail"
	// CancelCollectiveAbort marks a collective member released by a
	// watchdog or failure abort: the kernel "completed" in the CUDA
	// sense but the transfer never happened.
	CancelCollectiveAbort = "collective-abort"
)

// Admission causes reported in KernelDep.HeadCause: what made the
// kernel eligible for admission (reach the head of its stream with all
// prior stream work retired).
const (
	// CauseDelivery: the kernel was eligible the instant it arrived on
	// the device — nothing on its stream was ahead of it.
	CauseDelivery = "delivery"
	// CauseStream: the previous kernel on the same stream had to finish
	// first (program order). HeadPred names it.
	CauseStream = "stream"
	// CauseEvent: an inter-stream Wait gated the kernel until the event
	// fired. HeadPred names the kernel whose completion fired it (-1
	// when the recording stream had run nothing).
	CauseEvent = "event"
)

// KernelDep is the causal launch record of one kernel: the timestamps
// and predecessor edges that explain when (and why) it started. One
// record is emitted per admitted kernel; together with the KernelSpan
// (which shares the same ID) it lets an offline analyzer reconstruct
// the run's dependency graph — stream program order, event waits,
// launch-queue serialization, SM-capacity waits, and collective
// membership — without re-simulating.
type KernelDep struct {
	// ID is the node-unique kernel id, matching KernelSpan.ID.
	ID     int
	Device int
	Stream int
	// Coll is the collective id the kernel belongs to, -1 for local
	// kernels (membership edges come from spans sharing a Coll).
	Coll int

	// Issued is the host-side Launch instant; Delivered is when the
	// command arrived on the device (launch latency plus any
	// serialization behind earlier commands on the same connection).
	Issued    simclock.Time
	Delivered simclock.Time
	// Serialized is the part of the delivery delay caused by the
	// connection's issue gap: Delivered minus (Issued + LaunchLatency).
	// Zero when the launch queue was empty enough not to matter.
	Serialized simclock.Time
	// ConnPred is the id of the previous kernel delivered on the same
	// host→device connection (-1 if none): the launch-queue
	// serialization edge of §2.3.1.
	ConnPred int

	// HeadAt is when the kernel reached the head of its stream with all
	// prior stream work retired — the first admission attempt.
	HeadAt simclock.Time
	// HeadCause classifies what ended the [Delivered, HeadAt] phase:
	// CauseDelivery, CauseStream, or CauseEvent.
	HeadCause string
	// HeadPred is the blocking predecessor kernel id (-1 when none).
	HeadPred int

	// Admitted is when the device's left-over policy let the kernel in.
	// When Admitted > HeadAt the kernel sat blocked on SM capacity;
	// AdmitPred then names the kernel whose finish freed the capacity
	// (-1 otherwise).
	Admitted  simclock.Time
	AdmitPred int
}

// Node is a simulated multi-GPU server attached to a simclock engine.
type Node struct {
	eng     *simclock.Engine
	spec    hw.Node
	devices []*Device

	nextStreamID int
	nextCollID   int
	nextKernelID int

	// collTimeout, when positive, is the default watchdog applied to
	// every new collective: if a group has not completed within this span
	// of its first member's arrival it aborts (rendezvous hang or stalled
	// progress — the NCCL_TIMEOUT analogue).
	collTimeout time.Duration

	// collEpoch numbers Device.recompute passes node-wide; collectives
	// stamp it to dedup membership scans in O(1).
	collEpoch uint64

	// kernFree recycles kernel instances (and their completion
	// closures); see the lifetime rule on kernelInstance.
	kernFree []*kernelInstance
	// evFree recycles fired, released events (see Event); collFree
	// recycles collectives no member can reach any more (see
	// Collective.recycle).
	evFree   []*Event
	collFree []*Collective
	// The hooks, when set by tests, inspect every retired kernel
	// instance, event or collective before it is pooled; returning false
	// drops the object instead, giving the unpooled run that pooling must
	// match.
	kernelHook func(k *kernelInstance) (pool bool)
	eventHook  func(ev *Event) (pool bool)
	collHook   func(c *Collective) (pool bool)

	// onFail observers run when a device permanently fails, before its
	// resident work drains, so runtimes can enter their reconfiguring
	// state ahead of the cancellation cascade.
	onFail      []func(dev int, now simclock.Time)
	failedCount int

	// evCounts classifies every event scheduled on the engine by
	// subsystem; see EventCounters in shards.go.
	evCounts EventCounters

	// Folding (see Fold). foldDecided is set by the first Fold call;
	// before it, asym records a per-device change that keeps the node
	// unfolded. folded is set once a group has folded; noFold (tests
	// only) forces every run unfolded. foldLeads lets FoldLed fold a
	// group's lead, and diverged records that such a fold's lead and
	// followers parted (Diverged).
	foldDecided bool
	asym        bool
	folded      bool
	noFold      bool
	foldLeads   bool
	diverged    bool

	tracer Tracer
	// tape, while a tracer is installed, keeps the records of the recent
	// rounds for a warp to re-emit (see Warp).
	tape *tape

	// The node's own events, for Warp: the sequence numbers it took and
	// the events of its that fired; notes lists its pending host
	// callbacks in scheduling order, noteFree recycles them, and
	// warpEpoch numbers the state encodings (Node.EncodeState).
	seqs, fired uint64
	notes       []*hostNote
	noteFree    []*hostNote
	warpEpoch   uint64
}

// hostNote is a host callback the node scheduled (notifyHost,
// HostBarrier), pooled with its firing callback.
type hostNote struct {
	fn     func(simclock.Time)
	h      simclock.Handle
	fireFn simclock.Event
}

// New builds a simulated node from a hardware description.
func New(eng *simclock.Engine, spec hw.Node) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := &Node{eng: eng, spec: spec}
	for i := 0; i < spec.NumGPUs; i++ {
		n.devices = append(n.devices, newDevice(n, i, spec.Host.MaxConnections))
	}
	return n, nil
}

// MustNew is New but panics on error; for tests and examples with
// known-good specs.
func MustNew(eng *simclock.Engine, spec hw.Node) *Node {
	n, err := New(eng, spec)
	if err != nil {
		panic(err)
	}
	return n
}

// touch catches up a computation deferred on the node's engine
// (simclock.Engine.Defer), such as a replayed iteration: every exported
// method of the node and its devices, streams, events and collectives
// calls it first, except the readers of fixed configuration (Engine,
// Spec, NumDevices, Device, the ids and sizes, MemCapacity), so nothing
// reads or changes the node behind a skipped simulation.
func (n *Node) touch() { n.eng.Touch() }

// Engine returns the simulation engine driving this node.
func (n *Node) Engine() *simclock.Engine { return n.eng }

// Spec returns the hardware description.
func (n *Node) Spec() hw.Node { return n.spec }

// NumDevices returns the GPU count.
func (n *Node) NumDevices() int { return len(n.devices) }

// Device returns device i.
func (n *Node) Device(i int) *Device { return n.devices[i] }

// NumAlive returns how many devices have not permanently failed.
func (n *Node) NumAlive() int {
	n.touch()
	return len(n.devices) - n.failedCount
}

// AliveDevices returns the indices of surviving devices in id order —
// the world a runtime re-plans onto after a permanent failure.
func (n *Node) AliveDevices() []int {
	n.touch()
	out := make([]int, 0, n.NumAlive())
	for i, d := range n.devices {
		if !d.failed {
			out = append(out, i)
		}
	}
	return out
}

// OnFail registers an observer invoked when a device permanently
// fails. Observers run before the dead device's in-flight work drains,
// so a runtime already reports "reconfiguring" by the time the abort
// cascade delivers failed completions.
func (n *Node) OnFail(fn func(dev int, now simclock.Time)) {
	n.touch()
	n.onFail = append(n.onFail, fn)
}

// FailDevice permanently removes device i: observers fire, then every
// in-flight kernel on the device cancels, its collective memberships
// abort (releasing members on surviving devices), and its queued work
// drains through the cancellation path. There is no restore — unlike a
// DeviceDrop window, the device never comes back. Idempotent.
func (n *Node) FailDevice(i int) {
	n.touch()
	d := n.devices[i]
	if d.failed {
		return
	}
	if n.folded {
		panic(fmt.Sprintf("gpusim: FailDevice on device %d of a folded node: "+
			"the alive set of a folded SPMD group cannot change once the run has started", i))
	}
	d.diverge("FailDevice")
	now := n.eng.Now()
	d.failed = true
	n.failedCount++
	if n.tracer != nil {
		n.tracer.DeviceFailed(i, now)
	}
	for _, fn := range n.onFail {
		fn(i, now)
	}
	d.drainFailed(now)
}

// SetTracer installs an observability tracer (nil to disable). A node
// that folds leads (FoldLeads) refuses one: the followers' dependency
// records would carry the lead's delivery times.
func (n *Node) SetTracer(t Tracer) {
	n.touch()
	if t != nil && n.foldLeads {
		panic("gpusim: SetTracer on a node that folds leads")
	}
	n.tracer, n.tape = nil, nil
	if t != nil {
		n.tape = &tape{inner: t}
		n.tracer = n.tape
	}
}

// Tracer returns the installed tracer (nil when tracing is disabled).
// Runtimes use it to report recovery transitions.
func (n *Node) Tracer() Tracer {
	n.touch()
	if n.tape == nil {
		return nil
	}
	return n.tape.inner
}

// newEvent takes an event from the free list (or allocates one) for a
// new recording. The subscriber slice keeps its backing array.
func (n *Node) newEvent() *Event {
	if l := len(n.evFree); l > 0 {
		ev := n.evFree[l-1]
		n.evFree[l-1] = nil
		n.evFree = n.evFree[:l-1]
		ev.fired, ev.released = false, false
		ev.firedAt, ev.firedBy = 0, noKernel
		return ev
	}
	return &Event{node: n, firedBy: noKernel}
}

// recycleEvent pools a fired, released event. The new generation tells
// waits on the old recording that it has fired.
func (n *Node) recycleEvent(ev *Event) {
	ev.gen++
	if n.eventHook != nil && !n.eventHook(ev) {
		return
	}
	n.evFree = append(n.evFree, ev)
}

// notifyHost runs fn on the host after the notification latency.
func (n *Node) notifyHost(fn func(simclock.Time)) {
	n.hostAfter(n.spec.Host.NotifyLatency, fn)
}

// hostAfter runs fn on the host d from now, listed on the node until it
// fires.
func (n *Node) hostAfter(d time.Duration, fn func(simclock.Time)) {
	var note *hostNote
	if l := len(n.noteFree); l > 0 {
		note = n.noteFree[l-1]
		n.noteFree[l-1] = nil
		n.noteFree = n.noteFree[:l-1]
	} else {
		note = &hostNote{}
		note.fireFn = func(t simclock.Time) { n.fireNote(note, t) }
	}
	note.fn = fn
	n.evCounts.Host++
	n.seqs++
	note.h = n.eng.After(d, note.fireFn)
	n.notes = append(n.notes, note)
}

// fireNote runs a host callback and recycles its note.
func (n *Node) fireNote(note *hostNote, t simclock.Time) {
	n.fired++
	if i := slices.Index(n.notes, note); i >= 0 {
		n.notes = slices.Delete(n.notes, i, i+1)
	}
	fn := note.fn
	note.fn, note.h = nil, simclock.Handle{}
	n.noteFree = append(n.noteFree, note)
	fn(t)
}

// newKernel takes a kernel instance from the free list (or allocates
// one). The completion callback is allocated once per pooled object,
// so steady-state launching does not allocate.
func (n *Node) newKernel() *kernelInstance {
	if l := len(n.kernFree); l > 0 {
		k := n.kernFree[l-1]
		n.kernFree[l-1] = nil
		n.kernFree = n.kernFree[:l-1]
		return k
	}
	k := &kernelInstance{}
	k.completionFn = func(t simclock.Time) {
		n.fired++
		k.updateProgress(t)
		k.stream.dev.finish(k, t)
	}
	return k
}

// recycleKernel resets a retired kernel instance and returns it to the
// free list. Callers must obey the lifetime rule on kernelInstance.
func (n *Node) recycleKernel(k *kernelInstance) {
	if k.state != kDone {
		panic("gpusim: recycling a kernel instance that has not finished")
	}
	if n.kernelHook != nil && !n.kernelHook(k) {
		return
	}
	*k = kernelInstance{completionFn: k.completionFn}
	n.kernFree = append(n.kernFree, k)
}

// NewStream creates a stream on device dev. Streams are assigned to
// host→device connections round-robin, mirroring how CUDA maps streams
// onto CUDA_DEVICE_MAX_CONNECTIONS hardware queues.
func (n *Node) NewStream(dev int) *Stream {
	n.touch()
	return n.NewStreamOnConnection(dev, n.devices[dev].nextConn())
}

// NewStreamOnConnection creates a stream bound to a specific launch
// connection. Liger places compute and communication streams on separate
// connections so a burst of compute launches cannot delay a
// communication kernel's delivery (§3.4).
func (n *Node) NewStreamOnConnection(dev, conn int) *Stream {
	n.touch()
	d := n.devices[dev]
	if conn < 0 || conn >= len(d.conns) {
		panic(fmt.Sprintf("gpusim: connection %d out of range (device has %d)", conn, len(d.conns)))
	}
	if d.inFold() {
		panic(fmt.Sprintf("gpusim: new stream on device %d, which is folded into device %d", dev, d.live().id))
	}
	s := &Stream{node: n, dev: d, id: n.nextStreamID, conn: d.conns[conn],
		lastDone: noKernel, advCause: CauseDelivery, advPred: noKernel}
	s.deliverFn = func(t simclock.Time) {
		n.fired++
		s.advCause, s.advPred = CauseDelivery, noKernel
		s.advance(t)
	}
	n.nextStreamID++
	d.streams = append(d.streams, s)
	return s
}

// NewCollective creates a rendezvous group expecting size members,
// inheriting the node's collective timeout (if any). Groups are pooled:
// the node reuses one once no member can reach it any more (see
// Collective.recycle), so callers must not hold a group past the next
// NewCollective after its members have all finished.
func (n *Node) NewCollective(size int) *Collective {
	n.touch()
	if size < 1 {
		panic("gpusim: collective size must be >= 1")
	}
	var c *Collective
	if l := len(n.collFree); l > 0 {
		c = n.collFree[l-1]
		n.collFree[l-1] = nil
		n.collFree = n.collFree[:l-1]
		*c = Collective{node: n, members: c.members[:0], onAbort: c.onAbort[:0],
			completionFn: c.completionFn, abortFn: c.abortFn}
	} else {
		c = &Collective{node: n}
		c.completionFn = func(t simclock.Time) {
			n.fired++
			c.finish(t)
		}
		c.abortFn = func(t simclock.Time) {
			n.fired++
			c.abort(t)
		}
	}
	c.id, c.size, c.timeout = n.nextCollID, size, n.collTimeout
	if cap(c.members) < size {
		c.members = make([]*kernelInstance, 0, size)
	}
	n.nextCollID++
	return c
}

// SetCollectiveTimeout installs the default watchdog for collectives
// created from now on (zero disables). Individual groups can override
// with Collective.SetTimeout.
func (n *Node) SetCollectiveTimeout(d time.Duration) {
	n.touch()
	if d < 0 {
		panic("gpusim: negative collective timeout")
	}
	n.collTimeout = d
}

// CollectiveTimeout returns the node-wide collective watchdog.
func (n *Node) CollectiveTimeout() time.Duration {
	n.touch()
	return n.collTimeout
}

// MinHealth returns the lowest device health factor on the node — the
// aggregate health probe a degradation-aware scheduler polls.
// Permanently failed devices are excluded: they are no longer part of
// the serving world, so they should not trip degradation fallback on
// the survivors after recovery.
func (n *Node) MinHealth() float64 {
	n.touch()
	h := 1.0
	for _, d := range n.devices {
		if d.failed {
			continue
		}
		if f := d.HealthFactor(); f < h {
			h = f
		}
	}
	return h
}

// MinLinkHealth returns the lowest link factor on the node: the
// communication-specific half of the health probe, 1 when every link
// is clean even if a device's compute is throttled.
func (n *Node) MinLinkHealth() float64 {
	n.touch()
	h := 1.0
	for _, d := range n.devices {
		if d.failed {
			continue
		}
		if f := d.LinkFactor(); f < h {
			h = f
		}
	}
	return h
}

// Drained reports whether the node holds no work and no launch
// backlog: nothing is queued on any stream, running, or waiting for
// admission, so no kernel, command, event record, wait or collective is
// live, and no launch connection still serializes — a command issued
// now is delivered after the plain launch latency. Host callbacks that
// event notifications or barriers scheduled are not the node's work;
// their owners track them.
func (n *Node) Drained() bool {
	n.touch()
	now, host := n.eng.Now(), n.spec.Host
	for _, d := range n.devices {
		if d.queueDepth != 0 || len(d.running) != 0 || len(d.pendingAdmission) != 0 {
			return false
		}
		for _, c := range d.conns {
			if c.lastDelivery+host.IssueGap > now+host.LaunchLatency {
				return false
			}
		}
	}
	return true
}

// HostBarrier invokes fn once every event in events has fired, adding
// the host notification latency plus the multi-device relaunch jitter
// (§4.5: waiting for kernels on all GPUs costs well over the single
// null-kernel launch latency). This is the CPU-GPU synchronization
// primitive used by the non-hybrid scheduler mode.
func (n *Node) HostBarrier(events []*Event, fn func(now simclock.Time)) {
	n.touch()
	if len(events) == 0 {
		n.hostAfter(0, fn)
		return
	}
	pending := len(events)
	jitter := n.spec.Host.NotifyLatency +
		time.Duration(len(n.devices))*n.spec.Host.SyncJitterPerDevice
	for _, ev := range events {
		ev.onFire(func(simclock.Time) {
			pending--
			if pending == 0 {
				n.hostAfter(jitter, fn)
			}
		})
	}
}

// Stats returns a copy of every device's utilization counters, folding
// in busy time up to the current instant. A device folded into a
// representative reports the representative's counters: it ran the
// same kernels at the same instants.
func (n *Node) Stats() []DeviceStats {
	n.touch()
	out := make([]DeviceStats, len(n.devices))
	for i, d := range n.devices {
		out[i] = d.live().statsAt(n.eng.Now())
	}
	return out
}

// KeepUnfolded keeps the node from folding (see Fold): its devices will
// be asked to diverge, as a fault schedule does. It must be called
// before the run starts.
func (n *Node) KeepUnfolded() {
	n.touch()
	if n.folded {
		panic("gpusim: KeepUnfolded on a node that has already folded")
	}
	n.asym = true
}

// Folded reports whether the node folded a group (see Fold). Once the
// first Fold call decided, the answer holds for the rest of the run.
func (n *Node) Folded() bool {
	n.touch()
	return n.folded
}

// Fold folds the SPMD group devs into one simulated device, if the node
// allows it, and returns the representative's index; it returns -1 and
// changes nothing otherwise. The representative is the group's last
// device. From then on, work launched onto it stands for the same work
// launched onto every device of the group in turn, in id order, and
// the group's other devices run nothing: a runtime launches once per
// round onto the representative, each launch inside a ReserveBlock
// block, and must not launch onto the other devices.
//
// Each kernel of the representative counts once per device of the
// group: in its collective's rendezvous size, the copies its OnDone
// reports and the DeviceStats of every device of the group. Tracers
// receive one record per device, with the kernel, stream and
// predecessor ids the unfolded run assigns.
//
// Only the first call decides: a node folds at most one group, before
// its devices ran anything, and only when nothing made its devices
// diverge — a per-device SetSpeed, SetLinkFactor, Alloc, Free or
// FailDevice, or KeepUnfolded (fault injection). The group must have
// at least two devices with the same stream layout. After the decision
// those calls panic on a folded device, and FailDevice panics on any
// device of a folded node: a folded group cannot unfold mid-run.
func (n *Node) Fold(devs []int) int {
	n.touch()
	if rep := n.fold(devs); rep != nil {
		return rep.id
	}
	return -1
}

func (n *Node) fold(devs []int) *Device {
	if n.foldDecided {
		return nil
	}
	n.foldDecided = true
	if n.noFold || n.asym || len(devs) < 2 {
		return nil
	}
	group := make([]*Device, len(devs))
	for i, id := range devs {
		if id < 0 || id >= len(n.devices) || (i > 0 && id <= devs[i-1]) {
			return nil
		}
		group[i] = n.devices[id]
		if !group[i].pristine() || !group[i].sameLayout(group[0]) {
			return nil
		}
	}
	rep := group[len(group)-1]
	rep.fold = group
	for i, s := range rep.streams {
		s.twins = make([]*Stream, len(group))
		for r, d := range group {
			s.twins[r] = d.streams[i]
		}
	}
	for _, d := range group[:len(group)-1] {
		d.rep = rep
	}
	n.folded = true
	return rep
}

// FoldLeads lets FoldLed fold a group's lead with its followers. It must
// be called before the run starts, on a node without a tracer (see
// SetTracer). A runtime's node never folds its lead: its followers may
// leave the lead's timeline (Diverged), and a private probe node that
// does fold it must check that.
func (n *Node) FoldLeads() {
	n.touch()
	if n.tracer != nil {
		panic("gpusim: FoldLeads on a node with a tracer")
	}
	n.foldLeads = true
}

// FoldLed folds the SPMD group devs whose first device is its lead: the
// one device that also issues lead-only records (Stream.RecordLead). It
// returns the representative's index and how many devices it stands for,
// or -1 and 0 when nothing folded. Unless the node folds leads
// (FoldLeads), the lead stays apart and FoldLed is Fold(devs[1:]).
//
// A representative that folds the lead runs the lead's timeline and
// stands for the lead-apart layout: the lead's kernels take the first
// block of each ReserveBlock, every command reserves the sequence
// numbers the lead and the followers would, and the followers keep a
// delivery chain of their own. The fold is exact as long as the lead's
// lead-only commands delay nothing the followers run; when one does,
// the node marks itself diverged, and its run from then on stands for
// no layout (Diverged).
func (n *Node) FoldLed(devs []int) (rep, copies int) {
	n.touch()
	if len(devs) == 0 {
		return -1, 0
	}
	group := devs
	if !n.foldLeads {
		group = devs[1:]
	}
	d := n.fold(group)
	if d == nil {
		return -1, 0
	}
	d.withLead = n.foldLeads
	return d.id, len(group)
}

// Diverged reports whether the followers of a representative that folds
// its lead (FoldLed) would have run a command at another instant than the
// lead does: a lead-only command's issue gap delayed the lead's delivery
// of a later command that reached the head of its stream before that
// delivery, or that was queued for admission, whose order reads delivery
// times. Once set, it stays set.
func (n *Node) Diverged() bool {
	n.touch()
	return n.diverged
}
