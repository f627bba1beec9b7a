package liger

import (
	"time"

	"liger/internal/gpusim"
	"liger/internal/simclock"
)

// Iteration replay. A batch run solo on a settled scheduler (Settled) and
// a drained, healthy node takes the same time and does the same work at
// every start instant: the simulation only ever reads time differences.
// Once one such run of a shape is recorded, a later one can complete
// from the record instead of being simulated. runtimes.Liger decides
// when a replay is exact; the shape's plan-cache entry keeps the record
// and the scheduler runs it.

// Replay is the recorded outcome of one solo iteration of a shape. It
// is kept small: a serving run records hundreds of shapes.
type Replay struct {
	// Duration is the span from submit to completion.
	Duration time.Duration
	// Seqs counts the engine sequence numbers the submit took.
	Seqs int
	// Timeout is the node's collective watchdog the iteration ran under:
	// a shorter one could abort a collective that completed.
	Timeout time.Duration
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

// NewReplay returns the record of an iteration that took d under the
// collective watchdog timeout, whose submit took seqs engine sequence
// numbers, that did node work w and added the counters sched
// (Stats.Since) to its scheduler.
func NewReplay(d, timeout time.Duration, seqs int, w gpusim.Work, sched Stats) *Replay {
	return &Replay{Duration: d, Seqs: seqs, Timeout: timeout, node: w, sched: counts{
		rounds: int32(sched.Rounds), primary: int32(sched.PrimaryKernels), secondary: int32(sched.SecondaryKernels),
		decompositions: int32(sched.Decompositions), emptySecondary: int32(sched.EmptySecondary),
		overruns: int32(sched.SecondaryOverruns), fallbacks: int32(sched.DegradedFallbacks),
		rebalances: int32(sched.DegradedRebalances)}}
}

// Replay returns the record of b's shape, nil when there is none.
func (b *Batch) Replay() *Replay {
	if b.entry == nil {
		return nil
	}
	return b.entry.replay
}

// SetReplay records rec as the outcome of b's shape. It lives on the
// shape's plan-cache entry, so it goes when the plan does.
func (b *Batch) SetReplay(rec *Replay) {
	if b.entry != nil {
		b.entry.replay = rec
	}
}

// Settled reports whether the scheduler is in the state a replay records
// and reproduces: nothing waiting, running or replaying, no round
// pending, not quiescing, no journal, a fixed contention factor, and
// warm. The first round waits on no event and so issues fewer commands;
// it is never recorded. It asks the node to fold (foldAsked), and every
// round sets both end events of each device it launches onto, a set
// that only shrinks afterwards.
func (s *Scheduler) Settled() bool {
	return s.foldAsked && !s.roundPending && !s.quiescing && s.replaying == nil &&
		len(s.waiting)+len(s.processing)+len(s.live) == 0 &&
		s.journalCap == 0 && !s.cfg.AdaptiveContention
}

// HoldWorkspace reserves b's activation workspace now, before b is
// submitted, as admission would; admission then finds it held. It
// reports false, holding nothing, when the workspace does not fit.
func (s *Scheduler) HoldWorkspace(b *Batch) bool {
	if b.WorkspaceBytes > 0 {
		if s.node.AllocAll(b.WorkspaceBytes) != nil {
			return false
		}
		b.workspaceHeld = true
	}
	return true
}

// Replay runs b, submitted now to a settled scheduler with its workspace
// held, as rec: b completes rec.Duration later, and only then is rec's
// work added to the node and the counters — by that instant the
// simulated run would have added all of it — and the completion
// delivered as a simulated one is.
func (s *Scheduler) Replay(b *Batch, rec *Replay) {
	now := s.node.Engine().Now()
	b.SubmittedAt, b.FirstLaunchAt, b.sched = now, now, s
	b.pos, b.split = b.plan.Len(), false
	s.replaying, s.replayRec = b, rec
	if s.replayDone == nil {
		s.replayDone = s.finishReplay
	}
	s.node.Engine().At(now+rec.Duration, s.replayDone)
}

func (s *Scheduler) finishReplay(now simclock.Time) {
	b, rec := s.replaying, s.replayRec
	s.replaying, s.replayRec = nil, nil
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
	}
}
