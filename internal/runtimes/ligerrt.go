package runtimes

import (
	"liger/internal/gpusim"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

// Liger adapts the interleaved-parallelism scheduler (internal/liger)
// to the Runtime interface: batches are assembled into FuncVecs and
// submitted to the multi-GPU multi-stream scheduler.
//
// On a permanent device failure the scheduler quiesces (the failed
// epoch fast-fails, in-flight kernels drain), the assembler retargets
// at the survivor world, and — after the communicator-rebuild +
// weight-re-shard delay — rounds resume on the survivors. Batches
// arriving mid-reconfiguration queue in the scheduler and launch
// against the new plan.
//
// Solo batches a serving loop chains from completions, or that reach a
// node on a shard of a sharded executor, are replayed from a per-shape
// record when that is exact (see replayer). The plan cache and the
// records live in a record store the runtimes of a cluster share
// (ShareRecords).
type Liger struct {
	node      *gpusim.Node
	compiler  *parallel.Compiler
	assembler *liger.Assembler
	scheduler *liger.Scheduler
	*failover
	replayer
	onDone func(Completion)
}

// NewLiger builds the Liger runtime over the node.
func NewLiger(node *gpusim.Node, compiler *parallel.Compiler, spec model.Spec, cfg liger.Config) (*Liger, error) {
	asm, err := liger.NewAssembler(compiler, spec, node.NumDevices())
	if err != nil {
		return nil, err
	}
	if err := allocWeights(node, spec); err != nil {
		return nil, err
	}
	sched, err := liger.NewScheduler(node, cfg)
	if err != nil {
		return nil, err
	}
	r := &Liger{node: node, compiler: compiler, assembler: asm, scheduler: sched,
		failover: newFailover(node, compiler.Comm(), spec)}
	r.catchUpFn, r.cfg, r.records, r.alive = r.catchUp, cfg, new(Records), mask(node.AliveDevices())
	asm.Share(&r.records.plans)
	sched.SetOnBatchDone(func(b *liger.Batch, now simclock.Time) {
		r.complete(Completion{ID: b.ID, Workload: b.Workload, Submitted: b.SubmittedAt,
			Done: now, Failed: b.Failed, Req: b.Req}, b)
	})
	node.OnFail(r.handleFail)
	return r, nil
}

// Name implements Runtime.
func (r *Liger) Name() string { return "Liger" }

// SetOnDone implements Runtime.
func (r *Liger) SetOnDone(fn func(Completion)) {
	r.touch()
	r.onDone = fn
}

// Submit implements Runtime.
func (r *Liger) Submit(w model.Workload) error {
	r.touch()
	return r.SubmitReq(w, -1)
}

// SubmitReq implements Tagged: the request id rides on the batch and
// its kernel launches so traces can decompose per-request time.
func (r *Liger) SubmitReq(w model.Workload, req int) error {
	r.touch()
	b, err := r.assembler.Assemble(w)
	if err != nil {
		return err
	}
	b.Req = req
	if r.impossible {
		now := r.node.Engine().Now()
		r.complete(Completion{ID: b.ID, Workload: w, Submitted: now, Done: now, Failed: true, Req: req}, b)
		return nil
	}
	r.submit(b)
	return nil
}

// complete reports a batch's completion c and then hands the batch back
// to the assembler. The release follows the callback, which may submit
// work that would reuse the batch. A collective of the batch that
// aborts marks it failed: after a watchdog abort, once its last member
// completed it, so the mark lands on the released batch (Assemble clears
// it); after a kernel cancelled on a failed device, before that kernel's
// completion, so the batch completes already failed.
func (r *Liger) complete(c Completion, b *liger.Batch) {
	if b == r.held {
		r.held = nil
		r.replays++
	}
	r.depth++
	if r.onDone != nil {
		r.onDone(c)
	}
	r.depth--
	r.assembler.Release(b)
}

// handleFail is the Node.OnFail observer: retarget the assembler at
// the survivor world (batches assembled from here on compile for it,
// and records are those of the survivors' world, synthesized on a probe
// node of the survivors), quiesce the scheduler, and — once the old
// epoch drains — pay the recovery delay, re-shard, and resume rounds on
// the survivors.
func (r *Liger) handleFail(dev int, now simclock.Time) {
	r.begin(now)
	alive := r.node.AliveDevices()
	r.alive = mask(alive)
	r.compiler = r.compiler.ForWorldSize(len(alive))
	if err := r.assembler.Retarget(r.compiler, len(alive)); err != nil {
		r.impossible = true
	}
	r.scheduler.Quiesce(now, func(simclock.Time) {
		r.afterQuiesce(func(t simclock.Time) {
			if err := r.reshard(); err != nil {
				r.scheduler.FailAll(t)
				r.finishReconfig(t)
				return
			}
			r.scheduler.Resume(t)
			r.finishReconfig(t)
		})
	})
}

// mask returns the bit mask of devs.
func mask(devs []int) uint64 {
	var m uint64
	for _, d := range devs {
		m |= 1 << d
	}
	return m
}

// Scheduler exposes the underlying scheduler for stats inspection. A
// replay in progress is caught up first, so its simulated work shows.
func (r *Liger) Scheduler() *liger.Scheduler {
	r.touch()
	return r.scheduler
}

// touch catches up a replay the engine deferred: every exported method
// but Name calls it first, so nothing reaches the runtime behind a
// skipped simulation.
func (r *Liger) touch() { r.node.Engine().Touch() }
