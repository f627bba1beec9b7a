package liger

import (
	"slices"
	"time"

	"liger/internal/gpusim"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

// Stats aggregates scheduler activity over a run.
type Stats struct {
	Rounds int
	// PrimaryKernels / SecondaryKernels count kernels launched in the
	// primary and overlapped subsets.
	PrimaryKernels   int
	SecondaryKernels int
	// Decompositions counts runtime kernel splits (§3.6).
	Decompositions int
	// EmptySecondary counts rounds where no matching subset was found
	// (low arrival rate: interleaved parallelism degenerating to
	// intra-op, §3.1).
	EmptySecondary int
	// BatchesDone counts completed batches.
	BatchesDone int
	// SecondaryOverruns counts rounds whose secondary subset outlasted
	// the primary on the device timeline.
	SecondaryOverruns int
	// AdaptedFactor is the final online contention factor (equals the
	// configured factor unless AdaptiveContention is on).
	AdaptedFactor float64
	// DegradedFallbacks counts rounds where the degradation-aware
	// scheduler saw worst-device health below the fallback threshold and
	// skipped the secondary subset (non-interleaved fallback).
	DegradedFallbacks int
	// DegradedRebalances counts rounds where health was degraded but
	// above the threshold, so the secondary budget was shrunk instead.
	DegradedRebalances int
}

// Scheduler is the multi-GPU multi-stream scheduler (§3.3). It owns a
// compute stream and a communication stream on each device (each on its
// own host launch connection, mirroring CUDA_DEVICE_MAX_CONNECTIONS=2),
// a waiting queue, and a fixed-size processing list.
type Scheduler struct {
	node *gpusim.Node
	cfg  Config

	compute []*gpusim.Stream
	comm    []*gpusim.Stream

	// lastComputeEnd / lastCommEnd are the previous round's end events
	// per device; the next round's streams wait on the *other* stream's
	// event — the inter-stream half of hybrid synchronization. The
	// scheduler holds each until a round replaces it, then releases it.
	lastComputeEnd []*gpusim.Event
	lastCommEnd    []*gpusim.Event

	waiting      []*Batch
	processing   []*Batch
	roundPending bool

	// alive is the device set rounds launch onto; it shrinks when a
	// device permanently fails and the scheduler resumes on the
	// survivors (collectives are sized to it).
	alive []int
	// Folding (gpusim.Node.Fold), asked for on the first round: rep is
	// the representative device (-1 while unfolded), standing for
	// repCopies devices of alive; folded lists the devices a round then
	// launches onto.
	foldAsked bool
	rep       int
	repCopies int
	folded    []int
	// quiescing gates round launches during a failover: set by Quiesce,
	// cleared by Resume.
	quiescing bool
	// live tracks every submitted-but-incomplete batch so a quiesce can
	// fail the whole epoch; drainSet is the snapshot of in-flight
	// batches whose launched kernels must land before the quiesce is
	// complete.
	live      map[*Batch]struct{}
	drainSet  map[*Batch]struct{}
	onDrained func(now simclock.Time)

	onBatchDone func(b *Batch, now simclock.Time)
	stats       Stats

	// dynFactor is the live contention factor under AdaptiveContention.
	dynFactor float64

	journal    []RoundRecord
	journalCap int

	// Round buffers, owned by the scheduler and reused by every
	// launchRound: the two subsets, their collectives, the per-device end
	// events, and split's pieces and held remainders. A round launches
	// synchronously and retains none of them, so the next round may
	// overwrite them.
	sub0, sub1     []Func
	split          parallel.Splitter
	colls0, colls1 []*gpusim.Collective
	endPrim        []*gpusim.Event
	endSec         []*gpusim.Event
	barrier        []*gpusim.Event
	// nextRound is the round-completion trigger, allocated on the first
	// round.
	nextRound func(now simclock.Time)
	// obsFree recycles overrun observers (see observeOverrun).
	obsFree []*roundObserver

	// replaying is the batch a Replay runs, with its record, until its
	// completion event replayDone fires.
	replaying  *Batch
	replayRec  *Replay
	replayDone func(now simclock.Time)
}

// NewScheduler builds a scheduler over the simulated node.
func NewScheduler(node *gpusim.Node, cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{node: node, cfg: cfg, alive: node.AliveDevices(), rep: -1, live: make(map[*Batch]struct{})}
	for d := 0; d < node.NumDevices(); d++ {
		// Compute launches on connection 0, communication on connection 1:
		// a burst of compute launches can never delay the delivery of a
		// communication kernel (§2.3.1's lag, avoided by construction).
		s.compute = append(s.compute, node.NewStreamOnConnection(d, 0))
		conn := 1 % node.Spec().Host.MaxConnections
		s.comm = append(s.comm, node.NewStreamOnConnection(d, conn))
	}
	s.lastComputeEnd = make([]*gpusim.Event, node.NumDevices())
	s.lastCommEnd = make([]*gpusim.Event, node.NumDevices())
	s.dynFactor = cfg.ContentionFactor
	if cfg.AdaptiveContention {
		// Learn from scratch: start optimistic and let overruns teach.
		s.dynFactor = 1.0
	}
	return s, nil
}

// contentionFactor returns the factor currently applied to subsequent
// batches' durations during subset matching.
func (s *Scheduler) contentionFactor() float64 {
	if s.cfg.AdaptiveContention {
		return s.dynFactor
	}
	return s.cfg.ContentionFactor
}

// SetOnBatchDone installs the completion callback (used by the serving
// layer to record latency).
func (s *Scheduler) SetOnBatchDone(fn func(b *Batch, now simclock.Time)) { s.onBatchDone = fn }

// Stats returns a copy of the activity counters.
func (s *Scheduler) Stats() Stats {
	st := s.stats
	st.AdaptedFactor = s.contentionFactor()
	return st
}

// QueueLengths reports (waiting, processing) sizes.
func (s *Scheduler) QueueLengths() (int, int) { return len(s.waiting), len(s.processing) }

// Submit enqueues an assembled batch. Must be called from within the
// simulation (an engine callback); the batch's arrival time is the
// current virtual time.
func (s *Scheduler) Submit(b *Batch) {
	now := s.node.Engine().Now()
	b.SubmittedAt = now
	b.sched = s
	s.live[b] = struct{}{}
	s.waiting = append(s.waiting, b)
	s.maybeStartRound(now)
}

// batchDone retires a completed batch: it leaves the processing list,
// the live registry and the drain set, its workspace frees, and only
// then does the completion callback run, as the last use of b (the
// callback may release it for reuse).
func (s *Scheduler) batchDone(b *Batch, t simclock.Time) {
	s.stats.BatchesDone++
	if i := slices.Index(s.processing, b); i >= 0 {
		s.processing = slices.Delete(s.processing, i, i+1)
	}
	delete(s.live, b)
	if b.workspaceHeld {
		b.workspaceHeld = false
		s.node.FreeAll(b.WorkspaceBytes)
		// Freed workspace may unblock memory-gated admissions even
		// when no round notification is due.
		s.maybeStartRound(t)
	}
	if s.drainSet != nil {
		delete(s.drainSet, b)
		if len(s.drainSet) == 0 && s.onDrained != nil {
			fn := s.onDrained
			s.onDrained = nil
			fn(t)
		}
	}
	if s.onBatchDone != nil {
		s.onBatchDone(b, t)
	}
}

// refill moves waiting batches into the processing list (arrival order,
// Principle 1), drops exhausted ones, and orders service classes:
// latency-critical batches precede best-effort ones, each class keeping
// arrival order (a stable partition, so FIFO semantics are unchanged
// when only one class is in use).
func (s *Scheduler) refill() {
	live := s.processing[:0]
	for _, b := range s.processing {
		if !b.Exhausted() {
			live = append(live, b)
		}
	}
	clear(s.processing[len(live):])
	s.processing = live
	for len(s.processing) < s.cfg.MaxInflight && len(s.waiting) > 0 {
		// Pull the first latency-critical waiter if any, else FIFO.
		pick := 0
		if s.waiting[pick].Class == BestEffort {
			for i, b := range s.waiting {
				if b.Class != BestEffort {
					pick = i
					break
				}
			}
		}
		b := s.waiting[pick]
		// Reserve the batch's activation workspace on every device; when
		// memory is tight the processing list shrinks below MaxInflight
		// (real backpressure, not silent over-admission). Note that
		// exhausted batches leave the processing list while their last
		// kernels — and workspaces — are still in flight, so allocation
		// can fail even with an empty list; completions free memory and
		// re-kick the scheduler. A batch whose workspace HoldWorkspace
		// reserved at submit is admitted on it.
		if b.WorkspaceBytes > 0 && !b.workspaceHeld {
			if err := s.node.AllocAll(b.WorkspaceBytes); err != nil {
				break
			}
			b.workspaceHeld = true
		}
		s.processing = append(s.processing, b)
		s.waiting = slices.Delete(s.waiting, pick, pick+1)
	}
	// Stable partition by class; only a list holding both classes needs
	// reordering.
	var efforts int
	for _, b := range s.processing {
		if b.Class == BestEffort {
			efforts++
		}
	}
	if efforts == 0 || efforts == len(s.processing) {
		return
	}
	var critical, effort []*Batch
	for _, b := range s.processing {
		if b.Class == BestEffort {
			effort = append(effort, b)
		} else {
			critical = append(critical, b)
		}
	}
	s.processing = append(critical, effort...)
}

// maybeStartRound launches the next scheduling round unless one is
// already pending or there is nothing to do.
func (s *Scheduler) maybeStartRound(now simclock.Time) {
	if s.roundPending || s.quiescing {
		return
	}
	s.refill()
	if len(s.processing) == 0 {
		return
	}
	s.roundPending = true
	s.launchRound(now)
}

// collectPrimary implements the first half of Algorithm 1: pop kernels
// from the primary batch until the kernel type switches, accumulating
// the window duration. The subset lives in the scheduler's sub0 buffer
// until the next round.
func (s *Scheduler) collectPrimary(primary *Batch) (subset []Func, window time.Duration, typ gpusim.KernelClass) {
	typ = primary.head().Desc.Class
	subset = s.sub0[:0]
	for !primary.Exhausted() {
		f := primary.head()
		if f.Desc.Class != typ {
			break
		}
		window += f.Desc.Duration
		subset = append(subset, s.take(f))
	}
	s.sub0 = subset
	return subset, window, typ
}

// take consumes the head func f of its batch for this round. A split
// head points at the batch's remainder, which a later split of the same
// batch in this round would overwrite, so it moves to the round buffer.
func (s *Scheduler) take(f Func) Func {
	if f.batch.split {
		f.Desc = s.split.Hold(f.Desc)
	}
	f.batch.advance()
	return f
}

// collectSecondary implements the second half of Algorithm 1 plus the
// §3.5/§3.6 refinements: walk subsequent batches in arrival order,
// taking opposite-type kernels whose contention-scaled durations fit in
// the primary window, decomposing lengthy kernels when only a fraction
// fits. The subset lives in the scheduler's sub1 buffer until the next
// round.
func (s *Scheduler) collectSecondary(typ gpusim.KernelClass, window time.Duration) []Func {
	if window < s.cfg.MinOverlapWindow {
		return nil
	}
	// Budget in un-scaled duration: scaled total = sum(dur)·cf ≤ window.
	budget := time.Duration(float64(window) / s.contentionFactor())
	subset := s.sub1[:0]
	for _, v := range s.processing[1:] {
		for !v.Exhausted() && budget > 0 {
			head := v.head()
			if head.Desc.Class == typ {
				// Same type as the primary subset: taking it would make
				// same-type kernels contend with the primary batch
				// (Principle 1); move to the next batch.
				break
			}
			if head.Desc.Duration <= budget {
				budget -= head.Desc.Duration
				subset = append(subset, s.take(head))
				continue
			}
			// Lengthy kernel: runtime decomposition (§3.6). Find how many
			// 1/D pieces fit in the remaining budget.
			take := head.Desc.FittingPieces(s.cfg.DivisionFactor, budget)
			if take == 0 {
				break
			}
			pieces, rest, ok := s.split.SplitPrefix(head.Desc, head.Name, s.cfg.DivisionFactor, take)
			if !ok {
				break
			}
			s.stats.Decompositions++
			for i := range pieces {
				p := &pieces[i]
				budget -= p.Duration
				subset = append(subset, Func{Desc: p, Name: p.Name, batch: v})
			}
			v.replaceHead(rest)
			break // remainder is the new head; budget is largely spent
		}
		if budget <= 0 {
			break
		}
	}
	s.sub1 = subset
	return subset
}

// planSecondary is collectSecondary behind the degradation-aware
// re-planning gate. When enabled, the scheduler reads the worst device
// health (the simulator's NVML/DCGM telemetry analogue: the minimum of
// per-device speed and link degradation) each round and reacts by
// fault class:
//
//   - Health below the fallback threshold (a dropped device, a hung
//     collective window, a severely degraded link): skip the secondary
//     subset — fall back to non-interleaved execution. Interleaving
//     more batches behind an unusable device only entangles them with
//     the fault (and its retries).
//   - A degraded link with a comm secondary subset: shrink the overlap
//     budget by the link factor. Comm kernels stretch relative to the
//     compute primary, so an unadjusted subset overruns the window
//     (the §3.5 failure mode, now induced by the environment).
//   - A uniform speed slowdown needs no adjustment: both subsets
//     stretch alike on the straggler, the matching invariant holds,
//     and interleaving into the induced idle time is exactly what
//     softens the hit — measured goodput is strictly worse if the
//     scheduler sheds interleaving here.
func (s *Scheduler) planSecondary(typ gpusim.KernelClass, window time.Duration) []Func {
	if s.cfg.DegradationAware {
		if health := s.node.MinHealth(); health < s.cfg.fallbackHealth() {
			s.stats.DegradedFallbacks++
			return nil
		}
		if otherClass(typ) == gpusim.Comm {
			if link := s.node.MinLinkHealth(); link < 1 {
				s.stats.DegradedRebalances++
				window = time.Duration(float64(window) * link)
			}
		}
	}
	return s.collectSecondary(typ, window)
}

// launchRound collects the two subsets and launches them onto the
// per-device streams with the configured synchronization approach.
func (s *Scheduler) launchRound(now simclock.Time) {
	primary := s.processing[0]
	decomposedBefore := s.stats.Decompositions
	sub0, window, typ := s.collectPrimary(primary)
	sub1 := s.planSecondary(typ, window)

	s.stats.Rounds++
	s.stats.PrimaryKernels += len(sub0)
	s.stats.SecondaryKernels += len(sub1)
	if len(sub1) == 0 {
		s.stats.EmptySecondary++
	}
	if s.journalCap > 0 {
		rec := RoundRecord{
			Round:            s.stats.Rounds,
			At:               now,
			Primary:          primary.ID,
			Class:            typ,
			Window:           window,
			PrimaryKernels:   len(sub0),
			SecondaryKernels: len(sub1),
			Decomposed:       decomposedBefore != s.stats.Decompositions,
		}
		seen := map[int]bool{}
		for _, f := range sub1 {
			if !seen[f.batch.ID] {
				seen[f.batch.ID] = true
				rec.Donors = append(rec.Donors, f.batch.ID)
			}
		}
		s.record(rec)
	}

	// Rounds launch onto the surviving devices only; after a failover
	// the SPMD group (and every collective) is sized to the survivors.
	devs := s.roundDevices()
	ndev := s.node.NumDevices()
	primStreams, primLast := s.streamsFor(typ)
	secStreams, secLast := s.streamsFor(otherClass(typ))

	// Collectives rendezvous across the SPMD group: one per comm func.
	s.colls0 = s.collectives(s.colls0, sub0)
	s.colls1 = s.collectives(s.colls1, sub1)
	colls0, colls1 := s.colls0, s.colls1

	var notify *gpusim.Event
	lead := devs[0]
	if len(s.endPrim) != ndev {
		s.endPrim = make([]*gpusim.Event, ndev)
		s.endSec = make([]*gpusim.Event, ndev)
	}
	endPrim, endSec := s.endPrim, s.endSec
	for _, d := range devs {
		copies := 1
		if d == s.rep {
			copies = s.repCopies
			s.node.Device(d).ReserveBlock(len(sub0) + len(sub1))
		}
		ps := primStreams[d]
		// Inter-stream half of the synchronization: this round must not
		// start before the previous round's kernels on the other stream
		// finished.
		if ev := secLast[d]; ev != nil {
			ps.Wait(ev)
		}
		for i, f := range sub0 {
			if s.cfg.Sync == Hybrid && d == lead && i == len(sub0)-1 {
				// The pre-launch trigger: recorded before the subset's last
				// kernel so the CPU schedules the next round while it runs,
				// hiding the launch overhead (Fig. 8, bottom).
				notify = ps.Record()
			}
			s.launchFunc(ps, f, colls0[i], copies)
		}
		endPrim[d] = ps.Record()

		ss := secStreams[d]
		if ev := primLast[d]; ev != nil {
			ss.Wait(ev)
		}
		for i, f := range sub1 {
			s.launchFunc(ss, f, colls1[i], copies)
		}
		endSec[d] = ss.Record()
	}
	// Observe whether the secondary subset outlasted the primary — the
	// §3.5 scheduling-failure signal. Nothing has subscribed to this
	// round's end events yet.
	if len(sub1) > 0 {
		s.observeOverrun(endPrim[lead], endSec[lead], window)
	}
	// Remember this round's end events for the next round's waits; the
	// events they replace are no longer needed (the waits above hold
	// them).
	for _, d := range devs {
		compEnd, commEnd := endPrim[d], endSec[d]
		if typ != gpusim.Compute {
			compEnd, commEnd = commEnd, compEnd
		}
		replaceEvent(&s.lastComputeEnd[d], compEnd)
		replaceEvent(&s.lastCommEnd[d], commEnd)
	}
	// Drop the buffers' references so finished batches and collectives
	// are not kept alive until the next round.
	clear(sub0)
	clear(sub1)
	clear(colls0)
	clear(colls1)
	s.split.Reset()

	if s.nextRound == nil {
		s.nextRound = func(t simclock.Time) {
			s.roundPending = false
			s.maybeStartRound(t)
		}
	}
	next := s.nextRound
	switch s.cfg.Sync {
	case Hybrid:
		if notify == nil {
			// Empty primary subset cannot happen (primary always has a
			// head), but guard against a zero-length round.
			s.node.Engine().After(0, next)
			return
		}
		notify.OnHost(next)
		notify.Release()
	case CPUGPU:
		evs := s.barrier[:0]
		for _, d := range devs {
			evs = append(evs, endPrim[d], endSec[d])
		}
		s.barrier = evs
		s.node.HostBarrier(evs, next)
	case InterStreamOnly:
		// No CPU trigger at all: the next schedulable round launches
		// immediately, everything gated by inter-stream events. The
		// launch connections flood and late arrivals miss the windows.
		s.node.Engine().After(0, next)
	}
}

// roundDevices returns the devices a round launches onto. On the first
// round it asks the node to fold the SPMD group: every alive device but
// the lead under Hybrid sync, where only the lead records the
// pre-launch trigger, and every alive device otherwise. A folded round
// launches onto the lead (Hybrid) and once onto the representative.
func (s *Scheduler) roundDevices() []int {
	if !s.foldAsked {
		s.foldAsked = true
		group := s.alive
		if s.cfg.Sync == Hybrid {
			group = s.alive[1:]
		}
		if rep := s.node.Fold(group); rep >= 0 {
			s.rep, s.repCopies = rep, len(group)
			s.folded = append(append([]int(nil), s.alive[:len(s.alive)-len(group)]...), rep)
		}
	}
	if s.rep >= 0 {
		return s.folded
	}
	return s.alive
}

// streamsFor maps a kernel class to its stream set and the previous
// round's end events on that set.
func (s *Scheduler) streamsFor(typ gpusim.KernelClass) ([]*gpusim.Stream, []*gpusim.Event) {
	if typ == gpusim.Comm {
		return s.comm, s.lastCommEnd
	}
	return s.compute, s.lastComputeEnd
}

// replaceEvent stores ev in *slot and releases the event it replaces.
func replaceEvent(slot **gpusim.Event, ev *gpusim.Event) {
	if old := *slot; old != nil {
		old.Release()
	}
	*slot = ev
}

// roundObserver watches one round's lead-device end events. It records
// the primary's end instant itself instead of reading the primary's
// event when the secondary ends, because the scheduler may have
// released that event by then. Observers are pooled on the scheduler.
type roundObserver struct {
	s         *Scheduler
	threshold time.Duration
	primEnded bool
	primAt    simclock.Time
	// pending counts the end events still to fire; the observer is reused
	// once both have.
	pending       int
	onPrim, onSec func(now simclock.Time)
}

// observeOverrun arms an observer on a round's primary and secondary end
// events. It must be the primary event's first subscriber, so that the
// primary's end is on record before anything its firing sets off.
func (s *Scheduler) observeOverrun(ep, es *gpusim.Event, window time.Duration) {
	var o *roundObserver
	if n := len(s.obsFree); n > 0 {
		o = s.obsFree[n-1]
		s.obsFree[n-1] = nil
		s.obsFree = s.obsFree[:n-1]
	} else {
		o = &roundObserver{s: s}
		o.onPrim, o.onSec = o.primaryEnded, o.secondaryEnded
	}
	o.threshold = window / 50 // ignore sub-2% overruns: noise, not failures
	o.primEnded, o.primAt, o.pending = false, 0, 2
	ep.Observe(o.onPrim)
	es.Observe(o.onSec)
}

func (o *roundObserver) primaryEnded(now simclock.Time) {
	o.primEnded, o.primAt = true, now
	o.done()
}

// secondaryEnded counts an overrun and adapts the online contention
// factor when enabled.
func (o *roundObserver) secondaryEnded(now simclock.Time) {
	s := o.s
	// If the primary has not ended yet, the secondary finished first —
	// the desired outcome. Overrun means the secondary ended meaningfully
	// after the primary.
	overran := o.primEnded && now > o.primAt+o.threshold
	if overran {
		s.stats.SecondaryOverruns++
	}
	if s.cfg.AdaptiveContention {
		if overran {
			s.dynFactor *= 1.01
			if s.dynFactor > 1.5 {
				s.dynFactor = 1.5
			}
		} else if s.dynFactor > 1.0 {
			s.dynFactor *= 0.998
			if s.dynFactor < 1.0 {
				s.dynFactor = 1.0
			}
		}
	}
	o.done()
}

func (o *roundObserver) done() {
	o.pending--
	if o.pending == 0 {
		o.s.obsFree = append(o.s.obsFree, o)
	}
}

func otherClass(typ gpusim.KernelClass) gpusim.KernelClass {
	if typ == gpusim.Comm {
		return gpusim.Compute
	}
	return gpusim.Comm
}

// collectives allocates one rendezvous group per communication func in
// a subset into buf (index-aligned; nil for compute funcs). An abort —
// the watchdog tearing down a hung group under fault injection — marks
// the owning batch failed so the serving layer can retry it.
func (s *Scheduler) collectives(buf []*gpusim.Collective, subset []Func) []*gpusim.Collective {
	out := buf[:0]
	for _, f := range subset {
		var c *gpusim.Collective
		if f.Desc.Collective {
			c = s.node.NewCollective(len(s.alive))
			c.OnAbort(f.batch.abortFn())
		}
		out = append(out, c)
	}
	return out
}

// Quiesce begins a failover drain: round launches stop, every admitted
// batch fast-fails (the epoch under the failure is discarded — queued
// batches complete immediately, in-flight ones as their launched
// kernels cancel or land), and drained fires once no launched kernel
// of the old epoch remains. Batches submitted while quiescing queue up
// untouched and launch after Resume. drained may fire synchronously
// when nothing is in flight.
func (s *Scheduler) Quiesce(now simclock.Time, drained func(now simclock.Time)) {
	s.quiescing = true
	s.onDrained = drained
	s.drainSet = make(map[*Batch]struct{}, len(s.live))
	for b := range s.live {
		s.drainSet[b] = struct{}{}
	}
	waiting := s.waiting
	s.waiting = nil
	processing := s.processing
	s.processing = nil
	for _, b := range processing {
		b.failRemaining(now)
	}
	for _, b := range waiting {
		b.failRemaining(now)
	}
	// Exhausted-but-in-flight batches sit in neither list; sweep the
	// registry. Completion ordering stays event-driven (map order only
	// sets flags; completions of in-flight batches fire from kernel
	// events).
	for b := range s.live {
		b.failRemaining(now)
	}
	if len(s.drainSet) == 0 && s.onDrained != nil {
		fn := s.onDrained
		s.onDrained = nil
		fn(now)
	}
}

// FailAll fast-fails every batch the scheduler still holds — the
// failover-impossible path, when the surviving devices cannot host the
// model and nothing queued can ever run.
func (s *Scheduler) FailAll(now simclock.Time) {
	waiting := s.waiting
	s.waiting = nil
	processing := s.processing
	s.processing = nil
	for _, b := range processing {
		b.failRemaining(now)
	}
	for _, b := range waiting {
		b.failRemaining(now)
	}
}

// Resume ends a quiesce: the scheduler re-reads the surviving device
// set, re-enables round launches, and starts scheduling whatever
// arrived during the drain — now compiled for (and launched onto) the
// reduced world.
func (s *Scheduler) Resume(now simclock.Time) {
	s.alive = s.node.AliveDevices()
	s.quiescing = false
	s.drainSet = nil
	s.onDrained = nil
	s.maybeStartRound(now)
}

// launchFunc launches one func on one device's stream, wiring batch
// completion accounting; copies is how many devices the stream's device
// stands for.
func (s *Scheduler) launchFunc(st *gpusim.Stream, f Func, coll *gpusim.Collective, copies int) {
	b := f.batch
	if b.FirstLaunchAt == 0 {
		b.FirstLaunchAt = s.node.Engine().Now()
	}
	b.kernelLaunched(copies)
	if b.kernelDoneFn == nil {
		b.kernelDoneFn = b.kernelDone
	}
	st.Launch(gpusim.KernelSpec{
		Name:          f.Name,
		Class:         f.Desc.Class,
		Duration:      f.Desc.Duration,
		ComputeDemand: f.Desc.ComputeDemand,
		MemBWDemand:   f.Desc.MemBWDemand,
		Coll:          coll,
		Batch:         b.ID,
		Req:           b.Req,
		OnDone:        b.kernelDoneFn,
	})
}
