package serve

import (
	"fmt"

	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// Iteration-level continuous batching (Orca-style): instead of carrying
// a fixed batch through its whole generation, every decode iteration
// runs over the current pool of live sequences, and newly arrived
// sequences are admitted and prefilled between iterations. The batcher
// owns the scheduling policy only — KV memory lives behind the
// KVAllocator interface, so the same loop runs over the paged
// allocator or a decorated or fake one.

// KVAllocator is the admission-control surface the continuous batcher
// drives (implemented by kvcache.PagedManager).
type KVAllocator interface {
	// CanAdmit reports whether tokens of cache fit right now.
	CanAdmit(tokens int) bool
	// Admit reserves a new sequence's prompt cache.
	Admit(seqID, promptTokens int) error
	// Extend grows a sequence's cache by one generated token.
	Extend(seqID int) error
	// Release frees a finished sequence's cache.
	Release(seqID int)
}

// PreemptingAllocator is the optional paged extension: an allocator
// that can evict its lowest-priority sequence under memory pressure
// (kvcache.PagedManager). When the batcher's allocator implements it,
// an Extend failure triggers preemption instead of a run error, and the
// watermark is checked before every decode iteration.
type PreemptingAllocator interface {
	KVAllocator
	// UnderPressure reports free memory under the eviction watermark.
	UnderPressure() bool
	// Preempt evicts the lowest-priority live sequence, returning its id
	// and cached token count (the recompute obligation on resume).
	Preempt() (seqID, tokens int, ok bool)
}

// auditedAllocator is the optional ledger extension: an allocator that
// records invariant violations and counts the sequences it still holds
// (kvcache.PagedManager).
type auditedAllocator interface {
	// InvariantErr returns the first recorded invariant violation.
	InvariantErr() error
	// Live counts the sequences still holding cache.
	Live() int
}

// AuditKV is the run-end KV audit every generative driver shares. A run
// fails when its allocator recorded an invariant violation or still
// holds a sequence: a corrupted ledger or a leak must not pass as a
// success. An allocator without a ledger passes.
func AuditKV(kv KVAllocator) error {
	a, ok := kv.(auditedAllocator)
	if !ok {
		return nil
	}
	if err := a.InvariantErr(); err != nil {
		return fmt.Errorf("kv cache invariant violated: %w", err)
	}
	if n := a.Live(); n != 0 {
		return fmt.Errorf("kv cache still holds %d sequences after the run", n)
	}
	return nil
}

// DecodeNode is one node's continuous decode side: a paged KV cache
// and the iteration-level batcher over it, serving the node's runtime.
// The single-node continuous run is one decode node fed straight from
// the arrivals; a disaggregated cluster runs one per decode-pool node.
// Ledger.Result is their shared run-end check.
type DecodeNode struct {
	KV      *kvcache.PagedManager
	Batcher *ContinuousBatcher
	w       SequenceWorkload
}

// DecodeNodeConfig shapes one decode node.
type DecodeNodeConfig struct {
	// Node and Model size the paged cache for MaxPool live sequences
	// of PromptLen+GenTokens tokens; KV sets its block size and
	// eviction watermark.
	Node  hw.Node
	Model model.Spec
	SequenceWorkload
	KV kvcache.PagedConfig
	// Recorder, if non-nil, records the batcher's iterations and
	// sequence lifecycles and the cache's block transitions, tagged
	// with Pool: 0 on a single node, the decode-pool index in a
	// cluster. Recording never perturbs the simulation.
	Recorder *trace.Recorder
	Pool     int
	Hooks    ContinuousHooks
}

// NewDecodeNode builds the node's paged cache and batcher, installs
// the recorder on both and takes over rt's completion callback. eng is
// the clock driving rt, which stamps the cache's block transitions.
func NewDecodeNode(eng *simclock.Engine, rt runtimes.Runtime, cfg DecodeNodeConfig) (*DecodeNode, error) {
	if err := cfg.SequenceWorkload.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	kv, err := kvcache.NewPaged(cfg.Node, cfg.Model, cfg.MaxPool, cfg.PromptLen+cfg.GenTokens, cfg.KV)
	if err != nil {
		return nil, err
	}
	cb, err := NewContinuousBatcher(rt, kv, cfg.MaxPool, cfg.Hooks)
	if err != nil {
		return nil, err
	}
	if rec := cfg.Recorder; rec != nil {
		rec.SetPool(cfg.Pool)
		cb.SetTracer(rec, cfg.Pool)
		kv.SetTracer(rec, eng.Now)
	}
	rt.SetOnDone(cb.OnDone)
	return &DecodeNode{KV: kv, Batcher: cb, w: cfg.SequenceWorkload}, nil
}

// Add hands the workload's sequence id to the batcher at now.
// prefilled marks a prompt cache computed elsewhere and transferred in
// (GenSeq.Prefilled).
func (n *DecodeNode) Add(id int, prefilled bool, now simclock.Time) {
	n.Batcher.Add(GenSeq{ID: id, Prompt: n.w.PromptLen, Gen: n.w.GenTokens, Prefilled: prefilled}, now)
}

// GenSeq is one generative sequence entering the continuous batcher.
type GenSeq struct {
	ID int
	// Prompt is the prefill length; Gen the number of decode tokens to
	// produce after the first.
	Prompt int
	Gen    int
	// Prefilled marks a sequence whose prompt KV already exists (it was
	// computed elsewhere and transferred in — the disaggregated decode
	// path). Admission allocates its cache and moves it straight into
	// the decode pool without a Context submission. A preemption voids
	// the flag: the evicted cache must be recomputed with a real
	// prefill on resume.
	Prefilled bool
}

// ContinuousHooks observe sequence lifecycle events. All hooks are
// optional and fire from within engine callbacks.
type ContinuousHooks struct {
	// FirstToken fires when a sequence's first prefill completes (not on
	// recompute prefills after preemption).
	FirstToken func(id int, now simclock.Time)
	// Finished fires when a sequence completes its generation.
	Finished func(id int, now simclock.Time)
	// Preempted fires when a sequence is evicted under memory pressure
	// and re-queued with its recompute obligation.
	Preempted func(id int, now simclock.Time)
}

// genState is one sequence's scheduling state.
type genState struct {
	GenSeq
	// resumeLen is the prefill length of the next admission: the prompt,
	// plus — after a preemption — every token already produced, which
	// must be recomputed into the cache (recompute-on-resume).
	resumeLen int
	// produced counts decode tokens generated so far (survives
	// preemption; the work is not re-done, only the KV recompute).
	produced int
	// ctx is the cached context length while live.
	ctx       int
	started   bool // first prefill completed (TTFT stamped)
	prefilled bool // prompt KV present without a local prefill
}

// ContinuousBatcher schedules generative sequences at iteration
// granularity over one runtime: prefill admission interleaved with
// decode iterations over the live pool, one submission in flight at a
// time. The owner wires the runtime's completion callback to OnDone and
// feeds arrivals through Add; both must run inside engine callbacks on
// the runtime's shard.
type ContinuousBatcher struct {
	rt      runtimes.Runtime
	tag     runtimes.Tagged // rt's request-id view, nil if untagged
	kv      KVAllocator
	pre     PreemptingAllocator // kv's paged view, nil without preemption
	maxPool int
	hooks   ContinuousHooks

	// tr observes iterations and sequence lifecycles (SetTracer);
	// blocks is kv's gauge view when it exposes block accounting;
	// poolIdx tags records with the batcher's pool index.
	tr      ServingTracer
	blocks  BlockStats
	poolIdx int

	// waitQ holds arrivals and preempted sequences awaiting admission,
	// priority-ordered (front admits first).
	waitQ      seqQueue
	prefilling []*genState
	pool       []*genState
	byID       map[int]*genState

	// pending is the in-flight prefill's batch. The batcher owns its
	// buffer: OnDone reads it, and only then may the next submission
	// reuse it. prefilling and pending swap buffers at every prefill
	// submission. A decode iteration runs over the pool itself, which
	// does not change while it is in flight. snapshot is the extend
	// loop's copy of the pool. So steady-state iterations allocate
	// nothing.
	inFlight  bool
	pending   []*genState
	snapshot  []*genState
	pendingPF bool
	// pendingRec is the in-flight submission's iteration record; its
	// End/Retired fields are filled and it is emitted at completion.
	pendingRec IterationRecord
	hasPending bool
	iterSeq    int
	// stepPreempted counts evictions within the current step call, for
	// attribution to the iteration record that step submits.
	stepPreempted int

	err error

	// Iterations/PoolSum aggregate decode activity; PrefillBatches
	// counts context submissions; Preemptions and RecomputedTokens
	// price the eviction policy.
	Iterations       int
	PoolSum          int
	PrefillBatches   int
	Preemptions      int
	RecomputedTokens int
}

// NewContinuousBatcher builds the iteration scheduler over kv, which
// gates admission; when it implements PreemptingAllocator the paged
// preemption path is armed.
func NewContinuousBatcher(rt runtimes.Runtime, kv KVAllocator, maxPool int, hooks ContinuousHooks) (*ContinuousBatcher, error) {
	if rt == nil {
		return nil, fmt.Errorf("serve: continuous batcher needs a runtime")
	}
	if kv == nil {
		return nil, fmt.Errorf("serve: continuous batcher needs a KV allocator")
	}
	if maxPool < 1 {
		return nil, fmt.Errorf("serve: continuous pool size %d", maxPool)
	}
	b := &ContinuousBatcher{rt: rt, kv: kv, maxPool: maxPool, hooks: hooks, byID: map[int]*genState{}}
	b.tag, _ = rt.(runtimes.Tagged)
	b.pre, _ = kv.(PreemptingAllocator)
	b.blocks, _ = kv.(BlockStats)
	return b, nil
}

// SetTracer installs a serving tracer (nil disables tracing). pool tags
// every record with the batcher's pool index — 0 for a single-node run,
// the decode-pool index in a disaggregated cluster.
func (b *ContinuousBatcher) SetTracer(tr ServingTracer, pool int) {
	b.tr = tr
	b.poolIdx = pool
}

// seqEvent emits one lifecycle instant when a tracer is installed.
func (b *ContinuousBatcher) seqEvent(kind SeqEventKind, id, tokens int, at simclock.Time) {
	if b.tr == nil {
		return
	}
	b.tr.SeqEvent(SeqEvent{Pool: b.poolIdx, Seq: id, Kind: kind, At: at, Tokens: tokens})
}

// beginIteration snapshots the submission being made as the in-flight
// iteration record (emitted at completion with End/Retired filled).
func (b *ContinuousBatcher) beginIteration(prefill bool, batch, admitted int, now simclock.Time) {
	if b.tr == nil {
		return
	}
	rec := IterationRecord{
		Pool:      b.poolIdx,
		Seq:       b.iterSeq,
		Prefill:   prefill,
		Start:     now,
		Batch:     batch,
		Waiting:   b.waitQ.len(),
		Admitted:  admitted,
		Preempted: b.stepPreempted,
	}
	if b.blocks != nil {
		rec.KVTotalBlocks = b.blocks.TotalBlocks()
		rec.KVFreeBlocks = b.blocks.FreeBlocks()
		rec.KVUsedBlocks = rec.KVTotalBlocks - rec.KVFreeBlocks
	}
	if b.pre != nil {
		rec.Pressure = b.pre.UnderPressure()
	}
	b.iterSeq++
	b.pendingRec = rec
	b.hasPending = true
}

// submit dispatches one batch to the runtime, tagging single-sequence
// submissions with the sequence id (Completion.Req) so per-request
// trace breakdowns cover continuous mode; multi-sequence batches stay
// untagged (-1).
func (b *ContinuousBatcher) submit(w model.Workload, batch []*genState) error {
	if b.tag != nil && len(batch) == 1 {
		return b.tag.SubmitReq(w, batch[0].ID)
	}
	return b.rt.Submit(w)
}

// Add enqueues one sequence for admission and kicks the scheduler.
func (b *ContinuousBatcher) Add(s GenSeq, now simclock.Time) {
	if b.err != nil {
		return
	}
	if s.Prompt <= 0 || s.Gen <= 0 {
		b.fail(fmt.Errorf("serve: sequence %d with lengths %d/%d", s.ID, s.Prompt, s.Gen))
		return
	}
	if _, dup := b.byID[s.ID]; dup {
		b.fail(fmt.Errorf("serve: duplicate sequence id %d", s.ID))
		return
	}
	st := &genState{GenSeq: s, resumeLen: s.Prompt, prefilled: s.Prefilled}
	b.byID[s.ID] = st
	b.waitQ.pushBack(st)
	b.seqEvent(SeqArrive, s.ID, s.Prompt, now)
	b.step(now)
}

// Err returns the first scheduling error (nil in a healthy run).
func (b *ContinuousBatcher) Err() error { return b.err }

// Idle reports no live, pending, or waiting work.
func (b *ContinuousBatcher) Idle() bool {
	return !b.inFlight && b.waitQ.len() == 0 && len(b.prefilling) == 0 && len(b.pool) == 0
}

// MeanPool is the average live-pool size over decode iterations.
func (b *ContinuousBatcher) MeanPool() float64 {
	if b.Iterations == 0 {
		return 0
	}
	return float64(b.PoolSum) / float64(b.Iterations)
}

func (b *ContinuousBatcher) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// step runs the iteration scheduler: admit what fits, then submit
// either one prefill batch over the newly admitted sequences or one
// decode iteration over the live pool.
func (b *ContinuousBatcher) step(now simclock.Time) {
	if b.inFlight || b.err != nil {
		return
	}
	b.stepPreempted = 0
	admitted := 0
	// Admission is FIFO with head-of-line blocking: a waiting sequence
	// that does not fit keeps everything behind it waiting, which keeps
	// admission deterministic and starvation-free.
	for b.waitQ.len() > 0 && len(b.pool)+len(b.prefilling) < b.maxPool {
		s := b.waitQ.front()
		if !b.kv.CanAdmit(s.resumeLen) {
			break
		}
		if err := b.kv.Admit(s.ID, s.resumeLen); err != nil {
			b.fail(err)
			return
		}
		b.waitQ.popFront()
		admitted++
		if s.prefilled {
			// Cache is already materialized: skip the Context submission
			// and join the decode pool directly.
			s.ctx = s.resumeLen
			if !s.started {
				s.started = true
				if b.hooks.FirstToken != nil {
					b.hooks.FirstToken(s.ID, now)
				}
			}
			b.seqEvent(SeqJoin, s.ID, s.ctx, now)
			b.pool = append(b.pool, s)
			continue
		}
		b.prefilling = append(b.prefilling, s)
	}
	if len(b.prefilling) > 0 {
		batch := b.prefilling
		b.prefilling = b.pending[:0]
		maxLen := 0
		for _, s := range batch {
			if s.resumeLen > maxLen {
				maxLen = s.resumeLen
			}
			b.seqEvent(SeqPrefillStart, s.ID, s.resumeLen, now)
		}
		b.inFlight = true
		b.pending = batch
		b.pendingPF = true
		b.PrefillBatches++
		b.beginIteration(true, len(batch), admitted, now)
		if err := b.submit(model.Workload{Batch: len(batch), SeqLen: maxLen, Phase: model.Context}, batch); err != nil {
			b.fail(err)
		}
		return
	}
	if len(b.pool) == 0 {
		return // idle until the next arrival
	}
	// Watermark eviction: free memory below the allocator's watermark
	// means the next few extends are about to fail — evict the lowest-
	// priority sequence now, between iterations, where it is cheap.
	if b.pre != nil {
		for b.pre.UnderPressure() && len(b.pool) > 1 {
			if !b.preemptOne(now) {
				break
			}
		}
	}
	// Grow every pool member's cache by the token this iteration will
	// produce. An allocator failure is memory pressure: preempt the
	// lowest-priority sequence and retry, rather than failing the run.
	b.snapshot = append(b.snapshot[:0], b.pool...)
	for _, s := range b.snapshot {
		if s.ctx == 0 {
			continue // evicted earlier in this loop
		}
	extend:
		for {
			err := b.kv.Extend(s.ID)
			if err == nil {
				break
			}
			if b.pre == nil || len(b.pool) <= 1 {
				b.fail(fmt.Errorf("serve: kv cache exhausted with no preemption headroom: %w", err))
				return
			}
			victim := b.preemptOne(now)
			if !victim {
				b.fail(fmt.Errorf("serve: kv cache exhausted and nothing evictable: %w", err))
				return
			}
			if s.ctx == 0 {
				break extend // s itself was the victim
			}
		}
	}
	clear(b.snapshot)
	maxCtx := 0
	for _, s := range b.pool {
		s.ctx++
		if s.ctx > maxCtx {
			maxCtx = s.ctx
		}
	}
	b.inFlight = true
	b.pendingPF = false
	b.Iterations++
	b.PoolSum += len(b.pool)
	b.beginIteration(false, len(b.pool), admitted, now)
	if err := b.submit(model.Workload{Batch: len(b.pool), CtxLen: maxCtx, Phase: model.Decode}, b.pool); err != nil {
		b.fail(err)
	}
}

// preemptOne evicts the allocator's chosen victim from the pool and
// re-queues it at the front of the wait queue with its recompute
// obligation (prompt + every produced token must be prefilled again).
func (b *ContinuousBatcher) preemptOne(now simclock.Time) bool {
	id, _, ok := b.pre.Preempt()
	if !ok {
		return false
	}
	s := b.byID[id]
	if s == nil {
		b.fail(fmt.Errorf("serve: allocator preempted unknown sequence %d", id))
		return false
	}
	for i, p := range b.pool {
		if p == s {
			b.pool = append(b.pool[:i], b.pool[i+1:]...)
			break
		}
	}
	s.ctx = 0
	s.prefilled = false // the transferred cache is gone; resume recomputes
	s.resumeLen = s.Prompt + s.produced
	b.RecomputedTokens += s.resumeLen
	b.Preemptions++
	b.stepPreempted++
	b.waitQ.pushFront(s)
	b.seqEvent(SeqPreempt, id, s.resumeLen, now)
	if b.hooks.Preempted != nil {
		b.hooks.Preempted(id, now)
	}
	return true
}

// OnDone consumes one runtime completion; wire it to rt.SetOnDone (or
// call it from the fleet layer's completion path).
func (b *ContinuousBatcher) OnDone(c runtimes.Completion) {
	now := c.Done
	b.inFlight = false
	if b.pendingPF {
		for _, s := range b.pending {
			s.ctx = s.resumeLen
			b.seqEvent(SeqPrefillEnd, s.ID, s.ctx, now)
			if !s.started {
				s.started = true
				if b.hooks.FirstToken != nil {
					b.hooks.FirstToken(s.ID, now)
				}
			}
			b.pool = append(b.pool, s)
		}
		// The batch is consumed: step may reuse its buffer.
		clear(b.pending)
		b.endIteration(0, now)
		b.step(now)
		return
	}
	retired := 0
	live := b.pool[:0]
	for _, s := range b.pool {
		s.produced++
		if s.produced >= s.Gen {
			b.kv.Release(s.ID)
			delete(b.byID, s.ID)
			retired++
			b.seqEvent(SeqFinish, s.ID, s.produced, now)
			if b.hooks.Finished != nil {
				b.hooks.Finished(s.ID, now)
			}
			continue
		}
		live = append(live, s)
	}
	b.pool = live
	b.endIteration(retired, now)
	b.step(now)
}

// endIteration completes and emits the in-flight iteration record.
func (b *ContinuousBatcher) endIteration(retired int, now simclock.Time) {
	if !b.hasPending {
		return
	}
	b.hasPending = false
	rec := b.pendingRec
	rec.End = now
	rec.Retired = retired
	b.tr.Iteration(rec)
}

// seqQueue is the wait queue: a ring of sequences with pushes at either
// end and pops at the front. It doubles when full and never shrinks, so
// steady-state arrivals, admissions and preemptions allocate nothing.
type seqQueue struct {
	buf  []*genState // len is zero or a power of two
	head int
	n    int
}

func (q *seqQueue) len() int { return q.n }

// front returns the next sequence to admit; the queue must be non-empty.
func (q *seqQueue) front() *genState { return q.buf[q.head] }

func (q *seqQueue) pushBack(s *genState) {
	q.grow()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = s
	q.n++
}

func (q *seqQueue) pushFront(s *genState) {
	q.grow()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = s
	q.n++
}

func (q *seqQueue) popFront() *genState {
	s := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return s
}

// grow makes room for one more sequence, unrolling the ring to the
// front of a buffer twice the size.
func (q *seqQueue) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]*genState, max(8, 2*len(q.buf)))
	for i := range q.n {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
