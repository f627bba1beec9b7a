package runtimes

import (
	"liger/internal/gpusim"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

// IntraOp is the intra-operator parallelism baseline: every operator is
// partitioned across all devices (Megatron-style) with two all-reduces
// per transformer layer, and batches execute strictly one at a time
// (§2.2.1). Low latency, but compute units idle during communication.
//
// On a permanent device failure the runtime discards the failed epoch
// (the running batch's collectives abort, queued batches fail for the
// serving layer to retry), re-shards the weights onto the survivors,
// and recompiles subsequent batches for the reduced world.
type IntraOp struct {
	node     *gpusim.Node
	compiler *parallel.Compiler
	spec     model.Spec
	*failover

	streams []*gpusim.Stream
	// alive is the surviving device set batches execute on.
	alive []int

	queue   []*intraJob
	busy    bool
	running *intraJob
	nextID  int
	onDone  func(Completion)
	// colls is run's buffer of one batch's collectives, one slot per
	// kernel (nil for compute kernels).
	colls []*gpusim.Collective
}

type intraJob struct {
	id        int
	req       int
	w         model.Workload
	submitted simclock.Time
	plan      *parallel.Plan
	failed    bool
}

// NewIntraOp builds the baseline over every device of the node.
func NewIntraOp(node *gpusim.Node, compiler *parallel.Compiler, spec model.Spec) (*IntraOp, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &IntraOp{node: node, compiler: compiler, spec: spec,
		failover: newFailover(node, compiler.Comm(), spec), alive: node.AliveDevices()}
	if err := allocWeights(node, spec); err != nil {
		return nil, err
	}
	for d := 0; d < node.NumDevices(); d++ {
		r.streams = append(r.streams, node.NewStream(d))
	}
	node.OnFail(r.handleFail)
	return r, nil
}

// Name implements Runtime.
func (r *IntraOp) Name() string { return "Intra-Op" }

// SetOnDone implements Runtime.
func (r *IntraOp) SetOnDone(fn func(Completion)) { r.onDone = fn }

// Submit implements Runtime.
func (r *IntraOp) Submit(w model.Workload) error { return r.SubmitReq(w, -1) }

// SubmitReq implements Tagged: the request id rides on the batch's
// kernel launches so traces can decompose per-request time.
func (r *IntraOp) SubmitReq(w model.Workload, req int) error {
	job := &intraJob{id: r.nextID, req: req, w: w, submitted: r.node.Engine().Now()}
	if r.impossible {
		r.nextID++
		r.complete(job, r.node.Engine().Now(), true)
		return nil
	}
	plan, err := r.compiler.IntraOpPlan(r.spec, len(r.alive), w)
	if err != nil {
		return err
	}
	r.nextID++
	job.plan = plan
	r.queue = append(r.queue, job)
	r.maybeStart()
	return nil
}

func (r *IntraOp) maybeStart() {
	if r.busy || r.Reconfiguring() || len(r.queue) == 0 {
		return
	}
	r.busy = true
	job := r.queue[0]
	r.queue = r.queue[1:]
	r.running = job
	r.run(job)
}

func (r *IntraOp) complete(job *intraJob, now simclock.Time, failed bool) {
	if r.onDone != nil {
		r.onDone(Completion{ID: job.id, Workload: job.w, Submitted: job.submitted,
			Done: now, Failed: failed, Req: job.req})
	}
}

// handleFail is the Node.OnFail observer: discard the failed epoch
// (queued batches fail immediately, the running batch fails as its
// collectives abort under it) and retarget the compiler at the
// survivor world. Once the running batch drains, the recovery delay
// and re-shard follow.
func (r *IntraOp) handleFail(dev int, now simclock.Time) {
	r.begin(now)
	r.alive = r.node.AliveDevices()
	r.compiler = r.compiler.ForWorldSize(len(r.alive))
	if r.running != nil {
		r.running.failed = true
	}
	flushed := r.queue
	r.queue = nil
	for _, job := range flushed {
		r.complete(job, now, true)
	}
	if !r.busy {
		r.quiesced()
	}
}

// quiesced runs once no old-epoch work is in flight: pay the rebuild +
// re-shard delay, then resume on the survivors.
func (r *IntraOp) quiesced() {
	r.afterQuiesce(func(now simclock.Time) {
		if err := r.reshard(); err != nil {
			// The survivors cannot host the model: fail everything that
			// arrived during the drain; Submit fails the rest up front.
			flushed := r.queue
			r.queue = nil
			for _, job := range flushed {
				r.complete(job, now, true)
			}
		}
		r.finishReconfig(now)
		r.maybeStart()
	})
}

// run launches the whole SPMD kernel sequence: identical in-order
// streams on each surviving device, collectives rendezvousing across
// all of them.
func (r *IntraOp) run(job *intraJob) {
	devs := r.alive
	ws := workspaceBytes(r.spec, job.w)
	if err := r.node.AllocAll(ws); err != nil {
		// One batch at a time: the placement check at engine build
		// guarantees a single batch's workspace fits, so this is an
		// accounting bug, not a load condition.
		panic(err)
	}
	n := job.plan.Len()
	pending := n * len(devs)
	done := func(now simclock.Time, copies int) {
		pending -= copies
		if pending > 0 {
			return
		}
		r.node.FreeAll(ws)
		r.complete(job, now, job.failed)
		r.busy = false
		r.running = nil
		if r.Reconfiguring() {
			r.quiesced()
			return
		}
		r.maybeStart()
	}
	abort := func(simclock.Time) { job.failed = true }
	colls := r.colls[:0]
	for i := range n {
		var c *gpusim.Collective
		if k, _ := job.plan.At(i); k.Collective {
			c = r.node.NewCollective(len(devs))
			c.OnAbort(abort)
		}
		colls = append(colls, c)
	}
	for _, d := range devs {
		st := r.streams[d]
		for i := range n {
			k, name := job.plan.At(i)
			st.Launch(gpusim.KernelSpec{
				Name:          name,
				Class:         k.Class,
				Duration:      k.Duration,
				ComputeDemand: k.ComputeDemand,
				MemBWDemand:   k.MemBWDemand,
				Coll:          colls[i],
				Batch:         job.id,
				Req:           job.req,
				OnDone:        done,
			})
		}
	}
	// The launches hold the collectives; drop the buffer's references.
	clear(colls)
	r.colls = colls
}
