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
	"sync"
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

// Batch is an assembled inference: the FuncVec of one batched request
// plus execution status. It is created by the Assembler and consumed by
// the Scheduler.
type Batch struct {
	ID int
	// Workload records the input shape (batch size, sequence length).
	Workload model.Workload
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
	// cursor into its expansion, the next unscheduled kernel. While
	// scales is not empty, rest stands in for kernel pos: the remainder
	// runtime decomposition left of it, named rest.Name. scales holds
	// the share of kernel pos each split left, in split order, so rest's
	// pieces are kernel pos's scaled by each in turn; it keeps its
	// storage when Assemble recycles the batch.
	plan   *parallel.Plan
	pos    int
	rest   parallel.KernelDesc
	scales []float64
	// entry is the plan-cache entry plan came from (nil for a batch
	// built by NewBatch); it carries the shape's replay records.
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
	return newBatch(id, w, parallel.FlatPlan(kernels))
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
	if b.splitHead() {
		return Func{Desc: &b.rest, Name: b.rest.Name, batch: b}
	}
	d, name := b.plan.At(b.pos)
	return Func{Desc: d, Name: name, batch: b}
}

// splitHead reports whether the head is a remainder of a split.
func (b *Batch) splitHead() bool { return len(b.scales) > 0 }

// remainder returns the head kernel as runtime decomposition sees it:
// the plan's descriptor and the scales of the splits that cut it.
func (b *Batch) remainder() parallel.Remainder {
	d, _ := b.plan.At(b.pos)
	return parallel.Remainder{Root: d, Scales: b.scales}
}

// advance consumes the head func.
func (b *Batch) advance() {
	b.pos++
	b.scales = b.scales[:0]
}

// replaceHead leaves rest in place of the head — used when runtime
// decomposition peels a prefix off a lengthy kernel and scales what is
// left of it by scale (§3.6). The shared kernel sequence is untouched.
func (b *Batch) replaceHead(rest parallel.KernelDesc, scale float64) {
	b.rest = rest
	b.scales = append(b.scales, scale)
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
	b.pos, b.scales = b.plan.Len(), b.scales[:0]
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

	// plans is the plan cache the assembler reads and compiles into: one
	// of its own, made on first use, or one it shares (Share).
	plans *Plans

	// free holds released batches (Release) for Assemble to reuse, with
	// their callbacks.
	free []*Batch
}

// Plans is a plan cache: compiled plans by tensor-parallel degree and
// workload shape. Assemblers that serve the same model with compilers
// configured alike may share one (Share), the nodes of one cluster:
// compilation is a pure function of the configuration, the model, the
// degree and the shape, so the plan one of them compiled is the plan of
// every other. A cached plan is shared read-only by every batch of that
// shape: runtime decomposition writes only the batch's own head override
// (Batch.replaceHead).
//
// A shape's records (Replay) go with its plan, one per World. Plans is
// safe for concurrent use.
type Plans struct {
	mu sync.Mutex
	// caches holds a cache per degree asked for: a degree changes only
	// when a device fails.
	caches []*planCache
}

// planCache is the cache of one degree, most recently used first. It
// fills lazily and holds at most planBudget descriptors.
type planCache struct {
	tp    int
	plans map[model.Workload]*list.Element
	lru   list.List // of *cachedPlan
	descs int
}

// planBudget bounds the kernel descriptors a degree's plan cache holds;
// past it the least recently used plans are dropped. Plans are
// layer-periodic (parallel.Plan), so a shape holds one layer's
// descriptors, not every layer's: OPT-30B at four-way tensor parallelism
// stores 14 descriptors per context shape, though it expands to 578
// kernels per rank. The decode shapes of one batch size share that
// batch's 15 descriptors and each holds only its own attention
// descriptor, but a decode plan's Stored still counts the 15, so the
// budget, which keeps about 9,000 shapes, and the eviction order do not
// depend on how the compiler shares blocks.
const planBudget = 1 << 17

// cachedPlan is one entry of the plan cache. records holds the shape's
// recorded solo iteration in each world that has one (see Replay), or
// unrecordable for a world whose probe failed or did not complete. The
// cache's lock guards it.
type cachedPlan struct {
	w       model.Workload
	plan    *parallel.Plan
	records []worldRecord
}

// worldRecord is a shape's record in one world.
type worldRecord struct {
	world World
	rec   *Replay
}

// NewAssembler returns an assembler serving spec with tensor-parallel
// degree tp (the intra-operator partitioning Liger reuses, §3.1), over a
// plan cache of its own.
func NewAssembler(c *parallel.Compiler, spec model.Spec, tp int) (*Assembler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tp < 1 {
		return nil, fmt.Errorf("liger: tensor-parallel degree %d", tp)
	}
	return &Assembler{compiler: c, spec: spec, tp: tp}, nil
}

// Share makes the assembler read and compile plans in p from here on,
// instead of the cache it held. Every assembler sharing p must serve the
// same model with a compiler configured alike.
func (a *Assembler) Share(p *Plans) { a.plans = p }

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
			kernelDoneFn: b.kernelDoneFn, failFn: b.failFn, scales: b.scales[:0]}
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
// order across the reconfiguration. From here on the assembler reads
// and compiles the plans of the new degree; those of the old one, and
// their records, stay cached for the assemblers sharing the cache until
// they age out.
func (a *Assembler) Retarget(c *parallel.Compiler, tp int) error {
	if tp < 1 {
		return fmt.Errorf("liger: tensor-parallel degree %d", tp)
	}
	a.compiler = c
	a.tp = tp
	return nil
}

// plan returns the plan-cache entry for w at the assembler's degree,
// compiling its plan on the first request for that shape.
func (a *Assembler) plan(w model.Workload) (*cachedPlan, error) {
	if a.plans == nil {
		a.plans = new(Plans)
	}
	p := a.plans
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.cacheFor(a.tp)
	if e, ok := c.plans[w]; ok {
		c.lru.MoveToFront(e)
		return e.Value.(*cachedPlan), nil
	}
	plan, err := a.compiler.IntraOpPlan(a.spec, a.tp, w)
	if err != nil {
		return nil, err
	}
	if c.plans == nil {
		c.plans = make(map[model.Workload]*list.Element)
	}
	entry := &cachedPlan{w: w, plan: plan}
	c.plans[w] = c.lru.PushFront(entry)
	c.descs += plan.Stored()
	for c.descs > planBudget && c.lru.Len() > 1 {
		old := c.lru.Remove(c.lru.Back()).(*cachedPlan)
		delete(c.plans, old.w)
		c.descs -= old.plan.Stored()
	}
	return entry, nil
}

// cacheFor returns the cache of degree tp, adding it on first use. The
// caller holds p.mu.
func (p *Plans) cacheFor(tp int) *planCache {
	for _, c := range p.caches {
		if c.tp == tp {
			return c
		}
	}
	c := &planCache{tp: tp}
	p.caches = append(p.caches, c)
	return c
}

// Records counts the records the cache holds and the shapes it marks
// (MarkUnrecordable), over every entry and world.
func (p *Plans) Records() (held, marked int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.caches {
		for e := c.lru.Front(); e != nil; e = e.Next() {
			for _, r := range e.Value.(*cachedPlan).records {
				if r.rec == unrecordable {
					marked++
				} else {
					held++
				}
			}
		}
	}
	return held, marked
}

// Spec returns the served model.
func (a *Assembler) Spec() model.Spec { return a.spec }
