// Package liger implements the paper's primary contribution: the
// interleaved-parallelism runtime (§3). It assembles each arriving
// batch into a list of kernel launch functions (§3.2), schedules
// matched-duration subsets of computation and communication kernels
// from different batches onto per-device compute and communication
// streams (Algorithm 1, §3.4), controls execution order with hybrid
// CPU-GPU / inter-stream synchronization (§3.4), anticipates resource
// contention with contention factors (§3.5), and decomposes lengthy
// kernels at runtime to tighten the overlap (§3.6).
package liger

import (
	"container/list"
	"fmt"
	"time"

	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

// Func is one kernel launch function wrapper (§3.2): the kernel
// descriptor plus the batch bookkeeping the scheduler needs. Desc points
// into the batch's shared plan, the batch's remainder or the scheduler's
// round buffer, and must not be modified; a plan's layer descriptor
// serves every layer, so Name, not Desc.Name, is the kernel's name.
type Func struct {
	Desc  *parallel.KernelDesc
	Name  string
	batch *Batch
}

// BatchClass distinguishes service classes, an extension beyond the
// paper's FIFO ordering: latency-critical batches always outrank
// best-effort ones for the primary slot, so best-effort work fills
// overlap windows without ever delaying critical batches.
type BatchClass int

const (
	// LatencyCritical is the default class (the paper's Principle 1
	// treats every batch this way, FIFO).
	LatencyCritical BatchClass = iota
	// BestEffort batches yield the primary slot to critical batches.
	BestEffort
)

func (c BatchClass) String() string {
	if c == BestEffort {
		return "best-effort"
	}
	return "latency-critical"
}

// Batch is an assembled inference: the FuncVec of one batched request
// plus execution status. It is created by the Assembler and consumed by
// the Scheduler.
type Batch struct {
	ID int
	// Workload records the input shape (batch size, sequence length).
	Workload model.Workload
	// Class selects the service class; zero value is LatencyCritical.
	Class BatchClass
	// WorkspaceBytes is the per-device activation footprint reserved
	// while the batch is in the processing list (set by the Assembler;
	// zero disables memory accounting for hand-built batches).
	WorkspaceBytes int64
	// Failed marks a batch whose collective aborted under fault
	// injection: its kernels drained but the result is unusable. The
	// serving layer reads it off the completion to drive retries.
	Failed bool
	// Req is the serving-layer request id threaded onto the batch's
	// kernel launches; -1 when the batch was not submitted on behalf of
	// a tracked request.
	Req int

	// plan is the batch's compiled kernel sequence, shared read-only
	// with every batch of the same shape (see Assembler); pos is the
	// cursor into its expansion, the next unscheduled kernel. While split
	// is set, rest stands in for kernel pos: the remainder runtime
	// decomposition left of it, named rest.Name.
	plan  *parallel.Plan
	pos   int
	rest  parallel.KernelDesc
	split bool
	// entry is the plan-cache entry plan came from (nil for a batch
	// built by NewBatch); it carries the shape's replay record.
	entry *cachedPlan

	// SubmittedAt / DoneAt bound the batch's latency (pending + CUDA
	// execution time, the paper's latency metric); FirstLaunchAt splits
	// the two components.
	SubmittedAt   simclock.Time
	FirstLaunchAt simclock.Time
	DoneAt        simclock.Time

	// pendingKernels counts launched-but-unfinished kernel instances
	// across devices and rounds.
	pendingKernels int
	completed      bool

	// workspaceHeld records that the scheduler reserved the batch's
	// workspace when admitting it to the processing list, so completion
	// frees exactly what was allocated (a batch fast-failed out of the
	// waiting queue during a failover quiesce never allocated).
	workspaceHeld bool

	// sched is the scheduler the batch was submitted to; it hears of the
	// batch's completion.
	sched *Scheduler
	// kernelDoneFn is the reusable per-batch completion callback wired
	// into every launched kernel's OnDone (one closure per batch instead
	// of one per launch).
	kernelDoneFn func(now simclock.Time, copies int)
	// failFn is the reusable abort callback registered on every
	// collective the batch's kernels join (see abortFn).
	failFn func(now simclock.Time)
}

// abortFn returns the batch's collective-abort callback, which marks
// the batch failed; one closure per batch instead of one per collective.
func (b *Batch) abortFn() func(now simclock.Time) {
	if b.failFn == nil {
		b.failFn = func(simclock.Time) { b.Failed = true }
	}
	return b.failFn
}

// NewBatch wraps a flat kernel sequence as a schedulable batch: a plan
// with only a pre block, walked like any assembled plan. The batch reads
// kernels without copying or modifying it, so the caller must not
// modify it afterwards.
func NewBatch(id int, w model.Workload, kernels []parallel.KernelDesc) *Batch {
	return newBatch(id, w, &parallel.Plan{Pre: kernels})
}

func newBatch(id int, w model.Workload, plan *parallel.Plan) *Batch {
	return &Batch{ID: id, Workload: w, Req: -1, plan: plan}
}

// Remaining reports how many funcs are not yet scheduled.
func (b *Batch) Remaining() int { return b.plan.Len() - b.pos }

// Exhausted reports whether every func has been scheduled.
func (b *Batch) Exhausted() bool { return b.pos >= b.plan.Len() }

// Completed reports whether every launched kernel has finished.
func (b *Batch) Completed() bool { return b.completed }

// Latency returns the batch's end-to-end latency (pending + execution).
func (b *Batch) Latency() time.Duration {
	if !b.completed {
		return 0
	}
	return b.DoneAt - b.SubmittedAt
}

// PendingTime returns how long the batch waited before its first kernel
// was launched.
func (b *Batch) PendingTime() time.Duration {
	if b.FirstLaunchAt == 0 {
		return 0
	}
	return b.FirstLaunchAt - b.SubmittedAt
}

// ExecutionTime returns the span from first launch to completion.
func (b *Batch) ExecutionTime() time.Duration {
	if !b.completed || b.FirstLaunchAt == 0 {
		return 0
	}
	return b.DoneAt - b.FirstLaunchAt
}

// head returns the next unscheduled func; callers must check
// Exhausted first. A split head points at the batch's remainder, which
// the next replaceHead overwrites.
func (b *Batch) head() Func {
	if b.split {
		return Func{Desc: &b.rest, Name: b.rest.Name, batch: b}
	}
	d, name := b.plan.At(b.pos)
	return Func{Desc: d, Name: name, batch: b}
}

// advance consumes the head func.
func (b *Batch) advance() {
	b.pos++
	b.split = false
}

// replaceHead swaps the head's kernel descriptor — used when runtime
// decomposition peels a prefix off a lengthy kernel and leaves the
// remainder in place (§3.6). The shared kernel sequence is untouched.
func (b *Batch) replaceHead(desc parallel.KernelDesc) {
	b.rest, b.split = desc, true
}

// kernelLaunched records n launched kernel instances.
func (b *Batch) kernelLaunched(n int) { b.pendingKernels += n }

// kernelDone records the completion of a kernel's copies instances and
// completes the batch when the last in-flight kernel of an exhausted
// batch lands.
func (b *Batch) kernelDone(now simclock.Time, copies int) {
	b.pendingKernels -= copies
	if b.pendingKernels < 0 {
		panic(fmt.Sprintf("liger: batch %d kernel completion underflow", b.ID))
	}
	if b.pendingKernels == 0 && b.Exhausted() && !b.completed {
		b.complete(now)
	}
}

// complete marks the batch done and tells its scheduler, which drops it
// and runs the completion callback; nothing touches b afterwards, so the
// callback may hand it back to the Assembler.
func (b *Batch) complete(now simclock.Time) {
	b.completed = true
	b.DoneAt = now
	if b.sched != nil {
		b.sched.batchDone(b, now)
	}
}

// failRemaining marks the batch failed and abandons its unscheduled
// funcs — the failover quiesce path: the epoch under a permanent
// device failure is discarded, and the serving layer retries against
// the re-planned world. A batch with no kernels in flight completes
// immediately; one with launched kernels completes when they drain
// (cancellations on the dead device, normal completions elsewhere).
func (b *Batch) failRemaining(now simclock.Time) {
	if b.completed {
		return
	}
	b.Failed = true
	b.pos, b.split = b.plan.Len(), false
	if b.pendingKernels == 0 {
		b.complete(now)
	}
}

// Assembler builds FuncVecs for arriving batches (§3.2). It holds the
// compiler for the target node and the model being served, and assigns
// arrival-ordered batch IDs.
type Assembler struct {
	compiler *parallel.Compiler
	spec     model.Spec
	tp       int
	nextID   int

	// plans caches compiled plans by workload shape, most recently used
	// first in lru; it fills lazily, holds at most planBudget
	// descriptors, and Retarget drops it. A cached plan is shared
	// read-only by every batch of that shape: runtime decomposition
	// writes only the batch's own head override (Batch.replaceHead).
	plans     map[model.Workload]*list.Element
	lru       list.List // of *cachedPlan
	planDescs int

	// free holds released batches (Release) for Assemble to reuse, with
	// their callbacks.
	free []*Batch
}

// planBudget bounds the kernel descriptors the plan cache holds; past it
// the least recently used plans are dropped. Plans are layer-periodic
// (parallel.Plan), so a shape holds one layer's descriptors, not every
// layer's: OPT-30B at four-way tensor parallelism stores 14 descriptors
// per context shape and 15 per decode shape, though either expands to
// 578 or more kernels per rank. The budget keeps about 9,000 such shapes.
const planBudget = 1 << 17

// cachedPlan is one entry of the plan cache. replay is the shape's
// recorded solo iteration, nil until one is recorded (see Replay).
type cachedPlan struct {
	w      model.Workload
	plan   *parallel.Plan
	replay *Replay
}

// NewAssembler returns an assembler serving spec with tensor-parallel
// degree tp (the intra-operator partitioning Liger reuses, §3.1).
func NewAssembler(c *parallel.Compiler, spec model.Spec, tp int) (*Assembler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tp < 1 {
		return nil, fmt.Errorf("liger: tensor-parallel degree %d", tp)
	}
	return &Assembler{compiler: c, spec: spec, tp: tp}, nil
}

// Assemble compiles one batch's inference into a schedulable Batch,
// reusing a released one when there is one.
func (a *Assembler) Assemble(w model.Workload) (*Batch, error) {
	entry, err := a.plan(w)
	if err != nil {
		return nil, err
	}
	plan := entry.plan
	var b *Batch
	if n := len(a.free); n > 0 {
		b = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		*b = Batch{ID: a.nextID, Workload: w, Req: -1, plan: plan,
			kernelDoneFn: b.kernelDoneFn, failFn: b.failFn}
	} else {
		b = newBatch(a.nextID, w, plan)
	}
	b.entry = entry
	// Live activations at the widest point (FFN expansion), double
	// buffered — consistent with parallel.PlanPlacement.
	b.WorkspaceBytes = 3 * int64(w.Tokens()) * int64(a.spec.FFNHidden()) * 2
	a.nextID++
	return b, nil
}

// Release hands back a batch Assemble returned, for a later Assemble to
// reuse; the caller must not touch b afterwards. A submitted batch may
// be released once it completed: the scheduler has dropped it by the
// time its completion callback runs. When a watchdog abort of one of
// its collectives completed the batch, the abort marks it failed after
// its last member's OnDone, so after the release; Assemble's reset
// discards that mark. A kernel cancelled on a failed device aborts its
// collective, and so marks the batch failed, before its own OnDone.
func (a *Assembler) Release(b *Batch) {
	if b.sched != nil && !b.completed {
		panic(fmt.Sprintf("liger: release of batch %d, which is still running", b.ID))
	}
	if b.plan == nil {
		panic(fmt.Sprintf("liger: batch %d released twice", b.ID))
	}
	b.plan, b.entry = nil, nil
	a.free = append(a.free, b)
}

// Retarget repoints the assembler at a new compiler and tensor-parallel
// degree — the reduced world after a permanent device failure. The
// batch ID sequence is preserved so completion IDs stay in submission
// order across the reconfiguration. The cached plans go, and with them
// their replay records.
func (a *Assembler) Retarget(c *parallel.Compiler, tp int) error {
	if tp < 1 {
		return fmt.Errorf("liger: tensor-parallel degree %d", tp)
	}
	a.compiler = c
	a.tp = tp
	a.plans = nil
	a.lru.Init()
	a.planDescs = 0
	return nil
}

// plan returns the plan-cache entry for w, compiling its plan on the
// first request for that shape. Compilation is a pure function of the
// compiler, model, degree and shape, so a cached plan is the plan.
func (a *Assembler) plan(w model.Workload) (*cachedPlan, error) {
	if e, ok := a.plans[w]; ok {
		a.lru.MoveToFront(e)
		return e.Value.(*cachedPlan), nil
	}
	plan, err := a.compiler.IntraOpPlan(a.spec, a.tp, w)
	if err != nil {
		return nil, err
	}
	if a.plans == nil {
		a.plans = make(map[model.Workload]*list.Element)
	}
	entry := &cachedPlan{w: w, plan: plan}
	a.plans[w] = a.lru.PushFront(entry)
	a.planDescs += plan.Stored()
	for a.planDescs > planBudget && a.lru.Len() > 1 {
		old := a.lru.Remove(a.lru.Back()).(*cachedPlan)
		delete(a.plans, old.w)
		a.planDescs -= old.plan.Stored()
	}
	return entry, nil
}

// Spec returns the served model.
func (a *Assembler) Spec() model.Spec { return a.spec }

// TP returns the tensor-parallel degree.
func (a *Assembler) TP() int { return a.tp }
