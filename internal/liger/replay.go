package liger

import (
	"math/bits"
	"time"

	"liger/internal/gpusim"
	"liger/internal/simclock"
)

// Iteration replay. A batch run solo on a settled scheduler (Settled) and
// a drained, healthy node takes the same time and does the same work at
// every start instant: the simulation only ever reads time differences.
// runtimes.Liger decides when a replay is exact and synthesizes a
// shape's record from one probe of its plan at full depth
// (Batch.Detached, Probe.Record), whose steady layers the period
// fast-forward skips; the shape's plan-cache entry keeps the record, one
// per World, and the scheduler runs it.

// Replay is the recorded outcome of one solo iteration of a shape. It
// is kept small: a serving run records hundreds of shapes.
type Replay struct {
	// Duration is the span from submit to completion.
	Duration time.Duration
	// Seqs counts the engine sequence numbers the submit took.
	Seqs int
	// node is the work the iteration did on the node; sched what it
	// added to the scheduler's counters.
	node  gpusim.Work
	sched counts
}

// counts is a Stats delta of one iteration, BatchesDone aside:
// completing the replayed batch counts that.
type counts struct {
	rounds, primary, secondary, decompositions, emptySecondary, overruns, fallbacks, rebalances int32
}

// NewReplay returns the record of an iteration that took d, whose
// submit took seqs engine sequence numbers, that did node work w and
// added the counters sched (Stats.Since) to its scheduler.
func NewReplay(d time.Duration, seqs int, w gpusim.Work, sched Stats) *Replay {
	return &Replay{Duration: d, Seqs: seqs, node: w, sched: counts{
		rounds: int32(sched.Rounds), primary: int32(sched.PrimaryKernels), secondary: int32(sched.SecondaryKernels),
		decompositions: int32(sched.Decompositions), emptySecondary: int32(sched.EmptySecondary),
		overruns: int32(sched.SecondaryOverruns), fallbacks: int32(sched.DegradedFallbacks),
		rebalances: int32(sched.DegradedRebalances)}}
}

// World is what a record depends on besides its plan and what every
// node sharing a plan cache has in common (the hardware, the scheduler
// configuration, the model): the devices that survive, whether the node
// folded its devices (gpusim.Node.Fold) and its collective watchdog, the
// one the iteration ran under: a shorter one could abort a collective
// that completed. A node replays only records of its own world: its own
// probe would have produced exactly those. Alive has bit d set for each
// surviving device d; a node of more than 64 devices has no records
// (Probe.Record).
type World struct {
	Alive   uint64
	Folded  bool
	Timeout time.Duration
}

// Replay returns the record of b's shape in world w, nil when there is
// none, and reports whether the shape is marked in w as one without a
// record (MarkUnrecordable). b is a batch a assembled.
func (a *Assembler) Replay(b *Batch, w World) (rec *Replay, marked bool) {
	e := b.entry
	if e == nil {
		return nil, false
	}
	a.plans.mu.Lock()
	defer a.plans.mu.Unlock()
	for _, r := range e.records {
		if r.world == w {
			if r.rec == unrecordable {
				return nil, true
			}
			return r.rec, false
		}
	}
	return nil, false
}

// SetReplay records rec as the outcome of b's shape in world w. It lives
// with the shape's plan-cache entry, so it goes when the plan does, and
// every batch of the shape assembled from that cache sees it. b is a
// batch a assembled.
func (a *Assembler) SetReplay(b *Batch, w World, rec *Replay) {
	e := b.entry
	if e == nil {
		return
	}
	a.plans.mu.Lock()
	defer a.plans.mu.Unlock()
	for i, r := range e.records {
		if r.world == w {
			e.records[i].rec = rec
			return
		}
	}
	e.records = append(e.records, worldRecord{w, rec})
}

// unrecordable stands in a plan-cache entry's record of a world for a
// shape marked by MarkUnrecordable.
var unrecordable = new(Replay)

// MarkUnrecordable marks b's shape in world w as one whose probe failed
// or did not complete (Probe.Record refused it), so it is not probed
// again. Like a record, the mark lives with the shape's plan-cache
// entry. b is a batch a assembled.
func (a *Assembler) MarkUnrecordable(b *Batch, w World) { a.SetReplay(b, w, unrecordable) }

// Detached returns a batch of b's shape that runs b's plan, shared
// read-only. It is outside the plan cache, so it has no record, holds no
// workspace and takes no batch id from the assembler; a probe node runs
// it. reuse, when not nil, is a batch an earlier Detached returned, no
// longer running; Detached resets and returns it, so probing allocates
// nothing per shape.
func (b *Batch) Detached(reuse *Batch) *Batch {
	p := reuse
	if p == nil {
		p = new(Batch)
	}
	*p = Batch{ID: b.ID, Workload: b.Workload, Req: -1, plan: b.plan,
		kernelDoneFn: p.kernelDoneFn, failFn: p.failFn}
	return p
}

// Probe is the measure of one solo iteration of a detached batch
// (Batch.Detached) on a warm, drained private node: the span from submit
// to completion, the engine sequence numbers the submit took, whether
// the batch failed, the node's tallies at submit and at completion, and
// the counters the iteration added to its scheduler (Stats.Since).
type Probe struct {
	Duration      time.Duration
	Seqs          int
	Failed        bool
	Before, After gpusim.Tally
	Stats         Stats
}

// Record returns the record of the iteration q measured: its duration,
// sequence numbers and counters, and the tally delta of the devices it
// moved. It reports false, returning no record, when the iteration
// failed or the node has more than 64 devices.
func (q *Probe) Record() (*Replay, bool) {
	if q.Failed || len(q.After.Devices) > 64 {
		return nil, false
	}
	var mask uint64
	for i, d := range q.After.Devices {
		if d != q.Before.Devices[i] {
			mask |= 1 << i
		}
	}
	w := gpusim.Work{Kernels: q.After.Kernels - q.Before.Kernels, Collectives: q.After.Collectives - q.Before.Collectives,
		Mask: mask, Devices: make([]gpusim.DeviceStats, 0, bits.OnesCount64(mask))}
	for i, d := range q.After.Devices {
		if mask&(1<<i) != 0 {
			w.Devices = append(w.Devices, d.Sub(q.Before.Devices[i]))
		}
	}
	return NewReplay(q.Duration, q.Seqs, w, q.Stats), true
}

// Settled reports whether the scheduler is in the state a replay probes
// and reproduces: nothing waiting, running or replaying, no round
// pending, not quiescing, no journal, a fixed contention factor, and
// warm. The first round waits on no event and so issues fewer commands;
// it is never probed. It asks the node to fold (foldAsked), and every
// round sets both end events of each device it launches onto, a set
// that only shrinks afterwards.
func (s *Scheduler) Settled() bool {
	s.touch()
	return s.foldAsked && !s.roundPending && !s.quiescing && s.replaying == nil &&
		len(s.waiting)+len(s.processing)+len(s.live) == 0 &&
		s.journalCap == 0 && !s.cfg.AdaptiveContention
}

// HoldWorkspace reserves b's activation workspace now, before b is
// submitted, as admission would; admission then finds it held. It
// reports false, holding nothing, when the workspace does not fit.
func (s *Scheduler) HoldWorkspace(b *Batch) bool {
	s.touch()
	if b.WorkspaceBytes > 0 {
		if s.node.AllocAll(b.WorkspaceBytes) != nil {
			return false
		}
		b.workspaceHeld = true
	}
	return true
}

// Replay runs b, submitted now to a settled scheduler with its workspace
// held, as rec, and reports true: b completes rec.Duration later, and
// only then is rec's work added to the node and the counters — by that
// instant the simulated run would have added all of it — and the
// completion delivered as a simulated one is. The simulation is
// deferred on the engine (simclock.Engine.Defer): should anything touch
// the node, the scheduler or the window before the completion, the
// engine moves the clock back to the submit and the scheduler forgets
// the replay and calls catchUp(b, rec), which must submit b as it would
// have been submitted then. Replay reports false, changing nothing,
// when the engine cannot defer.
func (s *Scheduler) Replay(b *Batch, rec *Replay, catchUp func(*Batch, *Replay)) bool {
	s.touch()
	eng := s.node.Engine()
	if s.replayDone == nil {
		s.replayDone, s.replayCaught = s.finishReplay, s.caughtUp
	}
	if !eng.Defer(eng.Now()+rec.Duration, s.replayDone, s.replayCaught) {
		return false
	}
	s.ff.reset()
	s.replaying, s.replayRec, s.catchUp = b, rec, catchUp
	return true
}

// caughtUp forgets the replay the engine caught up and hands its batch
// and record to catchUp.
func (s *Scheduler) caughtUp() {
	b, rec, catchUp := s.replaying, s.replayRec, s.catchUp
	s.replaying, s.replayRec, s.catchUp = nil, nil, nil
	catchUp(b, rec)
}

func (s *Scheduler) finishReplay(now simclock.Time) {
	b, rec := s.replaying, s.replayRec
	s.replaying, s.replayRec, s.catchUp = nil, nil, nil
	b.SubmittedAt, b.FirstLaunchAt, b.sched = now-rec.Duration, now-rec.Duration, s
	b.pos, b.scales = b.plan.Len(), b.scales[:0]
	s.node.AddWork(rec.node)
	c, st := rec.sched, &s.stats
	st.Rounds += int(c.rounds)
	st.PrimaryKernels += int(c.primary)
	st.SecondaryKernels += int(c.secondary)
	st.Decompositions += int(c.decompositions)
	st.EmptySecondary += int(c.emptySecondary)
	st.SecondaryOverruns += int(c.overruns)
	st.DegradedFallbacks += int(c.fallbacks)
	st.DegradedRebalances += int(c.rebalances)
	b.complete(now)
}

// Since returns the counters st gained since earlier. AdaptedFactor is
// a reading, not a counter: it is left zero.
func (st Stats) Since(earlier Stats) Stats {
	return Stats{
		Rounds:             st.Rounds - earlier.Rounds,
		PrimaryKernels:     st.PrimaryKernels - earlier.PrimaryKernels,
		SecondaryKernels:   st.SecondaryKernels - earlier.SecondaryKernels,
		Decompositions:     st.Decompositions - earlier.Decompositions,
		EmptySecondary:     st.EmptySecondary - earlier.EmptySecondary,
		BatchesDone:        st.BatchesDone - earlier.BatchesDone,
		SecondaryOverruns:  st.SecondaryOverruns - earlier.SecondaryOverruns,
		DegradedFallbacks:  st.DegradedFallbacks - earlier.DegradedFallbacks,
		DegradedRebalances: st.DegradedRebalances - earlier.DegradedRebalances,
		FastForwarded:      st.FastForwarded - earlier.FastForwarded,
	}
}
