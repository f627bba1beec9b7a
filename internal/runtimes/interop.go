package runtimes

import (
	"liger/internal/gpusim"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

// InterOp is the inter-operator (pipeline) parallelism baseline: the
// model is split into equal contiguous stages, one per device, with a
// single point-to-point transfer between consecutive stages; requests
// flow through the pipeline so different devices work on different
// batches concurrently (§2.2.2). High throughput, but each request is
// processed by one device at a time so latency does not improve.
//
// With theoretical=true it becomes the Inter-Th baseline (§4.1): each
// stage executes the intra-operator approach's partitioned kernels back
// to back instead of the original kernels.
//
// On a permanent device failure the pipeline re-forms over the
// survivors: the failed epoch's jobs complete as failed (in-flight
// stages drain, everything else fails immediately), the weights
// re-shard into fewer, deeper stages, and subsequent jobs compile for
// the reduced world.
type InterOp struct {
	node        *gpusim.Node
	compiler    *parallel.Compiler
	spec        model.Spec
	theoretical bool
	*failover

	// main per-device stream for stage compute + sends; a dedicated
	// receive stream per device keeps the p2p rendezvous from blocking
	// behind the previous batch's stage.
	streams []*gpusim.Stream
	recv    []*gpusim.Stream

	// stageDev maps pipeline stage → device id; it is the survivor set
	// in id order and shrinks at failover. busy/queues are indexed by
	// stage.
	stageDev []int
	busy     []*pipeJob
	queues   [][]*pipeJob

	// jobs registers every incomplete job in submission order so a
	// failover can fail the whole epoch — including jobs mid-handoff
	// between stages, which sit in neither a queue nor a busy slot.
	jobs []*pipeJob
	// draining counts old-epoch stages still executing after a failure;
	// the recovery delay starts when it reaches zero.
	draining int

	nextID int
	onDone func(Completion)
}

type pipeJob struct {
	id        int
	req       int
	epoch     int
	w         model.Workload
	submitted simclock.Time
	// Stage s of the job's epoch runs plan.StageSpan(s, stages).
	plan   *parallel.Plan
	stages int
	failed bool
	done   bool
}

// NewInterOp builds the pipeline baseline with one stage per device.
func NewInterOp(node *gpusim.Node, compiler *parallel.Compiler, spec model.Spec, theoretical bool) (*InterOp, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &InterOp{node: node, compiler: compiler, spec: spec, theoretical: theoretical,
		failover: newFailover(node, compiler.Comm(), spec)}
	if err := allocWeights(node, spec); err != nil {
		return nil, err
	}
	ndev := node.NumDevices()
	for d := 0; d < ndev; d++ {
		r.streams = append(r.streams, node.NewStream(d))
		r.recv = append(r.recv, node.NewStream(d))
	}
	r.stageDev = node.AliveDevices()
	r.busy = make([]*pipeJob, len(r.stageDev))
	r.queues = make([][]*pipeJob, len(r.stageDev))
	node.OnFail(r.handleFail)
	return r, nil
}

// Name implements Runtime.
func (r *InterOp) Name() string {
	if r.theoretical {
		return "Inter-Th"
	}
	return "Inter-Op"
}

// SetOnDone implements Runtime.
func (r *InterOp) SetOnDone(fn func(Completion)) { r.onDone = fn }

// Submit implements Runtime.
func (r *InterOp) Submit(w model.Workload) error { return r.SubmitReq(w, -1) }

// SubmitReq implements Tagged: the request id rides on the job's
// kernel launches so traces can decompose per-request time.
func (r *InterOp) SubmitReq(w model.Workload, req int) error {
	job := &pipeJob{id: r.nextID, req: req, w: w, submitted: r.node.Engine().Now(), epoch: r.epoch}
	if r.impossible {
		r.nextID++
		job.failed = true
		r.complete(job, r.node.Engine().Now())
		return nil
	}
	stages := len(r.stageDev)
	var plan *parallel.Plan
	var err error
	if r.theoretical {
		plan, err = r.compiler.InterThPlan(r.spec, stages, w)
	} else {
		plan, err = r.compiler.IntraOpPlan(r.spec, 1, w)
	}
	if err == nil {
		err = plan.CheckStages(stages)
	}
	if err != nil {
		return err
	}
	r.nextID++
	job.plan, job.stages = plan, stages
	r.jobs = append(r.jobs, job)
	r.queues[0] = append(r.queues[0], job)
	r.tryStage(0)
	return nil
}

// complete fires the completion exactly once and drops the job from
// the incomplete registry.
func (r *InterOp) complete(job *pipeJob, now simclock.Time) {
	if job.done {
		return
	}
	job.done = true
	for i, j := range r.jobs {
		if j == job {
			r.jobs = append(r.jobs[:i], r.jobs[i+1:]...)
			break
		}
	}
	if r.onDone != nil {
		r.onDone(Completion{ID: job.id, Workload: job.w, Submitted: job.submitted,
			Done: now, Failed: job.failed, Req: job.req})
	}
}

// handleFail is the Node.OnFail observer: the whole in-flight epoch
// fails. Stages currently executing drain through the cancellation
// cascade (their workspace frees when the stage's terminal kernel
// lands); every other incomplete job — queued or mid-handoff — fails
// immediately. The pipeline then re-forms over the survivors.
func (r *InterOp) handleFail(dev int, now simclock.Time) {
	r.begin(now)
	oldBusy := r.busy
	// No compiler swap needed (unlike IntraOp/Liger): a job's stage
	// count is explicit (Inter-Th's pieces, the stage spans), and its
	// only communication is the rank-independent p2p stage send, never
	// a world-sized collective.
	r.stageDev = r.node.AliveDevices()
	r.busy = make([]*pipeJob, len(r.stageDev))
	r.queues = make([][]*pipeJob, len(r.stageDev))
	// Accumulate (not reset): a second failure during an ongoing drain
	// must keep counting the stages still executing from the first.
	for _, job := range oldBusy {
		if job != nil {
			r.draining++
		}
	}
	// Fail the epoch in submission order; busy jobs keep their slot in
	// the registry until their in-flight stage drains.
	inBusy := func(job *pipeJob) bool {
		for _, b := range oldBusy {
			if b == job {
				return true
			}
		}
		return false
	}
	snapshot := append([]*pipeJob(nil), r.jobs...)
	for _, job := range snapshot {
		job.failed = true
		if !inBusy(job) {
			r.complete(job, now)
		}
	}
	if r.draining == 0 {
		r.quiesced()
	}
}

// quiesced runs once no old-epoch stage is executing: pay the rebuild +
// re-shard delay, then restart the (shorter, deeper) pipeline.
func (r *InterOp) quiesced() {
	r.afterQuiesce(func(now simclock.Time) {
		if err := r.reshard(); err != nil {
			snapshot := append([]*pipeJob(nil), r.jobs...)
			for _, job := range snapshot {
				job.failed = true
				r.complete(job, now)
			}
			r.queues = make([][]*pipeJob, len(r.stageDev))
		}
		r.finishReconfig(now)
		for s := range r.stageDev {
			r.tryStage(s)
		}
	})
}

// tryStage starts the next queued job on stage s if the stage is free.
func (r *InterOp) tryStage(s int) {
	if r.Reconfiguring() || r.busy[s] != nil || len(r.queues[s]) == 0 {
		return
	}
	job := r.queues[s][0]
	r.queues[s] = r.queues[s][1:]
	r.busy[s] = job
	r.runStage(job, s)
}

// runStage launches stage s's span of the job's plan on the stage's
// device; when it completes the stage frees up, and (for non-final
// stages) the p2p transfer hands the job to the next stage's queue.
func (r *InterOp) runStage(job *pipeJob, s int) {
	lo, hi := job.plan.StageSpan(s, job.stages)
	send := s < job.stages-1
	dev := r.stageDev[s]
	// One stage processes one job at a time, so a single workspace per
	// device suffices; the placement check guarantees it fits.
	ws := workspaceBytes(r.spec, job.w)
	if err := r.node.Device(dev).Alloc(ws); err != nil {
		panic(err)
	}
	st := r.streams[dev]
	for i := lo; i < hi; i++ {
		k, name := job.plan.At(i)
		spec := gpusim.KernelSpec{
			Name:          name,
			Class:         k.Class,
			Duration:      k.Duration,
			ComputeDemand: k.ComputeDemand,
			MemBWDemand:   k.MemBWDemand,
			Batch:         job.id,
			Req:           job.req,
		}
		// Stage devices never fold (gpusim.Node.Fold), so every kernel
		// completes as one copy.
		if i == hi-1 && !send {
			spec.OnDone = func(now simclock.Time, _ int) { r.finishStage(job, s, dev, now) }
		}
		st.Launch(spec)
	}
	if send {
		// Rendezvous pair: send on this stage's main stream (after its
		// compute, in order), receive on the next stage device's
		// dedicated stream.
		next := s + 1
		recvDev := r.stageDev[next]
		coll := r.node.NewCollective(2)
		coll.OnAbort(func(simclock.Time) { job.failed = true })
		k := r.compiler.StageSend(r.spec, s, job.w)
		st.Launch(gpusim.KernelSpec{
			Name: k.Name, Class: k.Class, Duration: k.Duration,
			ComputeDemand: k.ComputeDemand, MemBWDemand: k.MemBWDemand,
			Coll: coll, Batch: job.id, Req: job.req,
			OnDone: func(now simclock.Time, _ int) { r.finishStage(job, s, dev, now) },
		})
		r.recv[recvDev].Launch(gpusim.KernelSpec{
			Name: k.Name + "_recv", Class: k.Class, Duration: k.Duration,
			ComputeDemand: k.ComputeDemand, MemBWDemand: k.MemBWDemand,
			Coll: coll, Batch: job.id, Req: job.req,
			OnDone: func(now simclock.Time, _ int) { r.advanceJob(job, next, now) },
		})
	}
}

// finishStage is a stage's terminal completion: the workspace frees on
// the device the stage ran on (captured at launch — the stage map may
// have been retargeted since). A job of a stale epoch is draining
// after a failover: it completes as failed here, and the last drained
// stage starts the recovery clock.
func (r *InterOp) finishStage(job *pipeJob, s, dev int, now simclock.Time) {
	r.node.Device(dev).Free(workspaceBytes(r.spec, job.w))
	if job.epoch != r.epoch {
		r.complete(job, now)
		r.draining--
		if r.draining == 0 {
			r.quiesced()
		}
		return
	}
	r.busy[s] = nil
	if s == job.stages-1 {
		r.complete(job, now)
	}
	r.tryStage(s)
}

// advanceJob hands a job to its next stage once the p2p lands. Stale
// epochs are dropped: the job already completed (or will, via its
// draining sender stage).
func (r *InterOp) advanceJob(job *pipeJob, next int, now simclock.Time) {
	if job.epoch != r.epoch {
		return
	}
	r.queues[next] = append(r.queues[next], job)
	r.tryStage(next)
}
