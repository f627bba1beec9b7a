package gpusim

import (
	"fmt"
	"math"
	"time"

	"liger/internal/simclock"
)

// KernelClass distinguishes the two kernel families whose interleaving
// Liger schedules (§3.1): computation kernels (GEMM, attention,
// elementwise) and communication kernels (collectives, p2p copies).
type KernelClass int

const (
	// Compute marks kernels that primarily use SMs and HBM bandwidth.
	Compute KernelClass = iota
	// Comm marks kernels that primarily move data between devices.
	Comm
)

// String implements fmt.Stringer.
func (c KernelClass) String() string {
	switch c {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	default:
		return fmt.Sprintf("KernelClass(%d)", int(c))
	}
}

// KernelSpec describes one kernel launch. Duration is the solo execution
// time (no concurrent kernels); the contention engine stretches it when
// the device's memory bandwidth is oversubscribed.
type KernelSpec struct {
	Name  string
	Class KernelClass
	// Duration is the kernel's execution time when running alone.
	Duration time.Duration
	// ComputeDemand is the fraction of the device's SMs the kernel
	// occupies while resident. Admission follows the left-over policy:
	// a kernel starts only when the running set leaves enough SMs.
	ComputeDemand float64
	// MemBWDemand is the fraction of HBM bandwidth the kernel wants;
	// oversubscription slows every memory-using kernel proportionally.
	MemBWDemand float64
	// Coll, when non-nil, makes this launch one member of a collective:
	// the kernel occupies resources from local admission (NCCL kernels
	// busy-wait) but progresses only once every member has been admitted,
	// and all members finish together.
	Coll *Collective
	// Batch and Seq carry scheduling metadata through to traces.
	Batch int
	Seq   int
	// Req is the serving-layer request id threaded through the runtimes
	// so traces and metrics can decompose per-request latency. Launch
	// sites outside the serving path should leave it negative (-1);
	// the runtimes tag it from the submission.
	Req int
	// OnDone, if set, runs once when the kernel instance completes, with
	// copies, the number of devices it ran on: the fold multiplicity of a
	// folded device's launch (see Node.Fold), 1 elsewhere.
	OnDone func(now simclock.Time, copies int)
}

type kernelState int

const (
	kQueued kernelState = iota
	kRunning
	kDone
)

// kernelInstance is a launched kernel tracked by the simulator.
//
// Instances are pooled on a node-level free list (Node.newKernel /
// Node.recycleKernel). The lifetime rule: an instance returns to the
// pool only once it is finished (kDone), popped from its stream, off
// every running set, and no unfinished collective lists it as a
// member. Concretely, Device.finish recycles a local kernel after its
// OnDone; a collective recycles its members after its finish or abort
// member loop; the failed-device cancel path and a late join to an
// aborted collective recycle the kernel they retire. Nothing else may
// hold an instance across a call that can finish kernels.
type kernelInstance struct {
	id int
	// stride is the id distance between the copies of a kernel launched
	// on a folded device (see Device.ReserveBlock); 0 elsewhere.
	stride int
	spec   KernelSpec
	stream *Stream
	state  kernelState

	// Dependency-edge bookkeeping for Tracer.KernelDep (see KernelDep):
	// issue/serialization from the launch connection, the head stamp
	// from the first admission attempt, and the capacity predecessor.
	issuedAt    simclock.Time
	deliveredAt simclock.Time
	serialized  simclock.Time
	connPred    kernelRef
	headAt      simclock.Time
	headCause   string
	headPred    kernelRef
	headStamped bool
	admitPred   kernelRef

	// remainingNS is solo-time work left, in float nanoseconds.
	remainingNS float64
	rate        float64
	lastUpdate  simclock.Time
	completion  simclock.Handle
	// completionFn is the completion callback, allocated once per pooled
	// object: it reaches the device through k.stream, so it stays valid
	// across recycling.
	completionFn func(simclock.Time)

	admittedAt simclock.Time
	startedAt  simclock.Time // for collectives: when progress began
	finishedAt simclock.Time

	// cancelled names the teardown that truncated this kernel instead of
	// letting it complete ("device-fail", "collective-abort"); empty for
	// a normal completion. Set by the cancel paths before finish so the
	// tracer can flag the span.
	cancelled string

	// nameShift is the layers a warp moved the kernel on (Node.Shift):
	// its name is spec.Name shifted by as many (ShiftName).
	nameShift int
	// warpEpoch and warpIdx name the instance in a state encoding
	// (Node.EncodeState).
	warpEpoch uint64
	warpIdx   int
}

// ref names k in dependency records.
func (k *kernelInstance) ref() kernelRef { return kernelRef{k.id, k.stride} }

// kernelRef names a kernel in a dependency edge: its id and the id
// stride of its folded copies (0 for a kernel of an unfolded device, whose
// id every copy of a dependent kernel shares). A representative launches
// the last copy, so copy back places before it has id id - back*stride.
type kernelRef struct{ id, stride int }

// noKernel is the empty edge, reported as id -1.
var noKernel = kernelRef{id: -1}

// copyID returns the id of the copy back places before the launched one.
func (r kernelRef) copyID(back int) int {
	if r.id < 0 {
		return -1
	}
	return r.id - back*r.stride
}

// updateProgress folds elapsed time into remaining work at the old rate.
func (k *kernelInstance) updateProgress(now simclock.Time) {
	if k.state != kRunning {
		return
	}
	elapsed := float64(now - k.lastUpdate)
	k.remainingNS -= elapsed * k.rate
	if k.remainingNS < 0 {
		k.remainingNS = 0
	}
	k.lastUpdate = now
}

// completionDelay converts remaining work at the given rate into a
// duration, rounding up so completion never fires early.
func completionDelay(remainingNS, rate float64) time.Duration {
	if rate <= 0 {
		return time.Duration(math.MaxInt64 / 4)
	}
	d := remainingNS / rate
	return time.Duration(math.Ceil(d))
}
