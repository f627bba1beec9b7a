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
	"time"

	"liger/internal/hw"
	"liger/internal/simclock"
)

// Tracer receives kernel lifecycle callbacks; used by the profiler and
// the Chrome-trace exporter. Implementations must not mutate simulator
// state.
//
// A Tracer may additionally implement any of the optional extension
// interfaces below (SpanTracer, CollectiveTracer, FaultTracer,
// QueueTracer); the node detects them once at SetTracer and emits the
// richer event families only to implementations that ask for them, so
// existing two-method tracers keep working unchanged.
type Tracer interface {
	KernelStart(dev int, name string, class KernelClass, start simclock.Time)
	KernelEnd(dev int, name string, class KernelClass, start, end simclock.Time)
}

// KernelSpan is the full record of one kernel execution, including the
// scheduling metadata (batch, request, collective) and whether the span
// was truncated by a cancellation instead of completing its work.
type KernelSpan struct {
	// ID is the node-unique kernel id (assigned in launch order), the
	// join key against KernelDep records. -1 on the legacy KernelEnd
	// path only.
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

// SpanTracer is an optional Tracer extension. When implemented, the
// node reports every kernel completion — including cancellations that
// plain tracers would see as a bare KernelEnd or (for kernels that
// never ran) not at all — as a KernelSpan, and suppresses the
// corresponding KernelEnd callback so implementations do not record the
// same span twice. KernelStart still fires as usual.
type SpanTracer interface {
	KernelSpan(sp KernelSpan)
}

// CollectiveTracer is an optional Tracer extension observing the
// collective lifecycle: member enqueue on a stream, per-member
// rendezvous wait (admitted, spinning for peers), the transfer start
// once every rank joined, and the group's completion or abort.
type CollectiveTracer interface {
	CollectiveEnqueue(coll, size, dev int, at simclock.Time)
	// RendezvousBegin fires when a member is admitted and starts
	// busy-waiting for its peers; the wait ends at the group's
	// TransferStart (or CollectiveAbort). Batch/Req mirror the member
	// kernel's scheduling metadata.
	RendezvousBegin(coll, dev, batch, req int, at simclock.Time)
	TransferStart(coll int, at simclock.Time)
	CollectiveFinish(coll int, at simclock.Time)
	CollectiveAbort(coll int, at simclock.Time)
}

// FaultTracer is an optional Tracer extension observing fault-injection
// and recovery transitions.
type FaultTracer interface {
	// RateChange fires whenever a device's speed or link factor changes
	// (a fault window opening or closing).
	RateChange(dev int, speed, link float64, at simclock.Time)
	// DeviceFailed fires when a device is permanently removed.
	DeviceFailed(dev int, at simclock.Time)
	// RecoveryBegin / RecoveryEnd bracket a runtime reconfiguration
	// (failover epoch): emitted by the runtimes through Node.Tracer.
	RecoveryBegin(at simclock.Time)
	RecoveryEnd(at simclock.Time)
}

// QueueTracer is an optional Tracer extension sampling per-device
// launch-queue depth (commands issued to the device's streams and not
// yet retired) on every change.
type QueueTracer interface {
	QueueDepth(dev, depth int, at simclock.Time)
}

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

// DepTracer is an optional Tracer extension receiving one KernelDep
// record per admitted kernel, at its admission instant. Kernels
// cancelled before admission (delivered to an already-failed device)
// emit only their truncated KernelSpan, never a dep record.
type DepTracer interface {
	KernelDep(dep KernelDep)
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

	// cmdFree recycles stream commands (and their delivery closures);
	// see Stream.pop.
	cmdFree []*command
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
	// healthChanges counts changes of a device's speed, link factor or
	// liveness (see HealthChanges).
	healthChanges uint64

	// evCounts classifies every event scheduled on the engine by
	// subsystem; see EventCounters in shards.go.
	evCounts EventCounters

	// Folding (see Fold). foldDecided is set by the first Fold call;
	// before it, asym records a per-device change that keeps the node
	// unfolded. folded is set once a group has folded; noFold (tests
	// only) forces every run unfolded.
	foldDecided bool
	asym        bool
	folded      bool
	noFold      bool

	tracer Tracer
	// The optional tracer extensions, type-asserted once at SetTracer so
	// the hot paths pay a nil check instead of an interface assertion.
	spanTracer  SpanTracer
	collTracer  CollectiveTracer
	faultTracer FaultTracer
	queueTracer QueueTracer
	depTracer   DepTracer
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

// Engine returns the simulation engine driving this node.
func (n *Node) Engine() *simclock.Engine { return n.eng }

// Spec returns the hardware description.
func (n *Node) Spec() hw.Node { return n.spec }

// NumDevices returns the GPU count.
func (n *Node) NumDevices() int { return len(n.devices) }

// Device returns device i.
func (n *Node) Device(i int) *Device { return n.devices[i] }

// NumAlive returns how many devices have not permanently failed.
func (n *Node) NumAlive() int { return len(n.devices) - n.failedCount }

// AliveDevices returns the indices of surviving devices in id order —
// the world a runtime re-plans onto after a permanent failure.
func (n *Node) AliveDevices() []int {
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
	n.onFail = append(n.onFail, fn)
}

// FailDevice permanently removes device i: observers fire, then every
// in-flight kernel on the device cancels, its collective memberships
// abort (releasing members on surviving devices), and its queued work
// drains through the cancellation path. There is no restore — unlike a
// DeviceDrop window, the device never comes back. Idempotent.
func (n *Node) FailDevice(i int) {
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
	n.healthChanges++
	if n.faultTracer != nil {
		n.faultTracer.DeviceFailed(i, now)
	}
	for _, fn := range n.onFail {
		fn(i, now)
	}
	d.drainFailed(now)
}

// SetTracer installs a kernel lifecycle tracer (nil to disable). The
// optional extension interfaces the tracer implements are detected
// here.
func (n *Node) SetTracer(t Tracer) {
	n.tracer = t
	n.spanTracer, _ = t.(SpanTracer)
	n.collTracer, _ = t.(CollectiveTracer)
	n.faultTracer, _ = t.(FaultTracer)
	n.queueTracer, _ = t.(QueueTracer)
	n.depTracer, _ = t.(DepTracer)
}

// Tracer returns the installed tracer (nil when tracing is disabled).
// Runtimes use it to report recovery transitions to FaultTracer
// implementations.
func (n *Node) Tracer() Tracer { return n.tracer }

// newCommand takes a command from the free list (or allocates one) and
// binds it to stream s. The delivery callback is allocated once per
// pooled object: it survives recycling, so steady-state issuing does not
// allocate.
func (n *Node) newCommand(s *Stream) *command {
	if l := len(n.cmdFree); l > 0 {
		cmd := n.cmdFree[l-1]
		n.cmdFree[l-1] = nil
		n.cmdFree = n.cmdFree[:l-1]
		cmd.stream = s
		return cmd
	}
	cmd := &command{stream: s}
	cmd.deliverFn = func(t simclock.Time) {
		cmd.stream.advCause, cmd.stream.advPred = CauseDelivery, noKernel
		cmd.stream.advance(t)
	}
	return cmd
}

// recycleCommand resets a popped command and returns it to the free
// list. Must only be called once no queue references the command.
func (n *Node) recycleCommand(cmd *command) {
	cmd.kind = 0
	cmd.kernel = nil
	cmd.event = nil
	cmd.stream = nil
	cmd.deliveredAt = 0
	cmd.waitRegistered = false
	n.cmdFree = append(n.cmdFree, cmd)
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
	n.evCounts.Host++
	n.eng.After(n.spec.Host.NotifyLatency, fn)
}

// newKernel takes a kernel instance from the free list (or allocates
// one). Like a command's delivery callback, the completion callback is
// allocated once per pooled object, so steady-state launching does not
// allocate.
func (n *Node) newKernel() *kernelInstance {
	if l := len(n.kernFree); l > 0 {
		k := n.kernFree[l-1]
		n.kernFree[l-1] = nil
		n.kernFree = n.kernFree[:l-1]
		return k
	}
	k := &kernelInstance{}
	k.completionFn = func(t simclock.Time) {
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
	return n.NewStreamOnConnection(dev, n.devices[dev].nextConn())
}

// NewStreamOnConnection creates a stream bound to a specific launch
// connection. Liger places compute and communication streams on separate
// connections so a burst of compute launches cannot delay a
// communication kernel's delivery (§3.4).
func (n *Node) NewStreamOnConnection(dev, conn int) *Stream {
	d := n.devices[dev]
	if conn < 0 || conn >= len(d.conns) {
		panic(fmt.Sprintf("gpusim: connection %d out of range (device has %d)", conn, len(d.conns)))
	}
	if d.inFold() {
		panic(fmt.Sprintf("gpusim: new stream on device %d, which is folded into device %d", dev, d.live().id))
	}
	s := &Stream{node: n, dev: d, id: n.nextStreamID, conn: d.conns[conn],
		lastDone: noKernel, advCause: CauseDelivery, advPred: noKernel}
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
		c.completionFn = func(t simclock.Time) { c.finish(t) }
		c.abortFn = func(t simclock.Time) { c.abort(t) }
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
	if d < 0 {
		panic("gpusim: negative collective timeout")
	}
	n.collTimeout = d
}

// CollectiveTimeout returns the node-wide collective watchdog.
func (n *Node) CollectiveTimeout() time.Duration { return n.collTimeout }

// MinHealth returns the lowest device health factor on the node — the
// aggregate health probe a degradation-aware scheduler polls.
// Permanently failed devices are excluded: they are no longer part of
// the serving world, so they should not trip degradation fallback on
// the survivors after recovery.
func (n *Node) MinHealth() float64 {
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

// HealthChanges counts every change so far of a device's speed, link
// factor or liveness: a reading that did not move over a span of virtual
// time proves no fault window opened or closed in it.
func (n *Node) HealthChanges() uint64 { return n.healthChanges }

// Drained reports whether the node holds no work and no launch
// backlog: nothing is queued on any stream, running, or waiting for
// admission, so no kernel, command, event record, wait or collective is
// live, and no launch connection still serializes — a command issued
// now is delivered after the plain launch latency. Host callbacks that
// event notifications or barriers scheduled are not the node's work;
// their owners track them.
func (n *Node) Drained() bool {
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
	if len(events) == 0 {
		n.evCounts.Host++
		n.eng.After(0, fn)
		return
	}
	pending := len(events)
	jitter := n.spec.Host.NotifyLatency +
		time.Duration(len(n.devices))*n.spec.Host.SyncJitterPerDevice
	for _, ev := range events {
		ev.onFire(func(simclock.Time) {
			pending--
			if pending == 0 {
				n.evCounts.Host++
				n.eng.After(jitter, fn)
			}
		})
	}
}

// Stats returns a copy of every device's utilization counters, folding
// in busy time up to the current instant. A device folded into a
// representative reports the representative's counters: it ran the
// same kernels at the same instants.
func (n *Node) Stats() []DeviceStats {
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
	if n.folded {
		panic("gpusim: KeepUnfolded on a node that has already folded")
	}
	n.asym = true
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
	if n.foldDecided {
		return -1
	}
	n.foldDecided = true
	if n.noFold || n.asym || len(devs) < 2 {
		return -1
	}
	group := make([]*Device, len(devs))
	for i, id := range devs {
		if id < 0 || id >= len(n.devices) || (i > 0 && id <= devs[i-1]) {
			return -1
		}
		group[i] = n.devices[id]
		if !group[i].pristine() || !group[i].sameLayout(group[0]) {
			return -1
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
	return rep.id
}
