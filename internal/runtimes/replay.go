package runtimes

import (
	"time"

	"liger/internal/gpusim"
	"liger/internal/liger"
)

// Iteration replay. A serving loop submits each iteration from the
// completion of the one before, so the iteration starts on a drained
// node with nothing else in flight. Such a solo iteration takes the same
// time and does the same work at every start instant (liger.Replay), so
// the runtime records the first one of each shape and answers later ones
// from the record: one completion event instead of the simulation. Every
// condition below keeps the answer exact; when one fails the batch is
// simulated as it always was.
//
//  1. Chained: the submit happens inside this runtime's own completion
//     delivery, and no other batch is waiting or in flight. Batch-mode
//     drivers submit from arrival events and never replay.
//  2. Recorded state: the node is drained and healthy (speed and link
//     factors 1) under the recorded collective watchdog, no tracer is
//     attached, the scheduler is settled (warm, no journal, no adaptive
//     contention), the runtime is not reconfiguring, and the batch's
//     workspace fits at submit.
//  3. A known window: the engine's next event lies strictly after the
//     replayed completion, the run in progress does not stop before it
//     (Engine.QuietThrough), and the engine is not a shard of a sharded
//     executor, which learns of posted events only at barriers.
//  4. Nothing scheduled into the window later: the submit holds the
//     batch and reserves the sequence numbers its simulated submit
//     takes; only when the delivery that submitted it returns does the
//     runtime check the window. If anything was scheduled into it, or
//     anything else reached the runtime first, the batch is submitted
//     then in its reserved place in the event order, exactly as a plain
//     run submits it.
//
// A recording is taken from a simulated iteration that met conditions 1
// and 2 at submit and again at completion, with no other submit, health
// change, watchdog change or failed completion in between.
type replayer struct {
	// off disables replay (tests: the simulated oracle).
	off bool
	// depth counts the completion deliveries in progress.
	depth int

	// pending is a chained batch held for replay until the delivery that
	// submitted it returns, with its record and the first of the
	// sequence numbers reserved for it. Whatever reaches the runtime
	// meanwhile flushes it first, so no other delivery can end while it
	// is held.
	pending    *liger.Batch
	pendingRec *liger.Replay
	pendingSeq uint64

	// recording is the simulated batch being recorded, with the readings
	// taken at its submit: the sequence numbers the submit took, the
	// node's health-change count, collective watchdog and tally, and the
	// scheduler's counters.
	recording  *liger.Batch
	recSeqs    int
	recHealth  uint64
	recTimeout time.Duration
	recTally   gpusim.Tally
	recStats   liger.Stats
	// tally is scratch for the reading at completion.
	tally gpusim.Tally

	// replays counts the iterations answered from a record.
	replays int
}

// replayable reports whether the node and scheduler are in the state a
// replay records and reproduces (condition 2 without the workspace, and
// the shard half of condition 3).
func (r *Liger) replayable() bool {
	n := r.node
	return !r.off && !r.reconfiguring && !r.impossible && n.Tracer() == nil && !n.Engine().Shard() &&
		r.scheduler.Settled() && n.Drained() && n.MinHealth() == 1 && n.MinLinkHealth() == 1
}

// submit hands b to the scheduler: held for replay when its shape has a
// record and the submit is chained, recorded when it has none, and
// simulated in any case but the first.
func (r *Liger) submit(b *liger.Batch) {
	r.flush()
	r.recording = nil
	if r.depth == 0 || !r.replayable() || !r.scheduler.HoldWorkspace(b) {
		r.scheduler.Submit(b)
		return
	}
	eng := r.node.Engine()
	if rec := b.Replay(); rec != nil {
		r.pending, r.pendingRec = b, rec
		r.pendingSeq = eng.ReserveN(rec.Seqs)
		return
	}
	r.recording, r.recHealth, r.recTimeout = b, r.node.HealthChanges(), r.node.CollectiveTimeout()
	r.recStats = r.scheduler.Stats()
	r.node.ReadTally(&r.recTally)
	seq := eng.Seq()
	r.scheduler.Submit(b)
	r.recSeqs = int(eng.Seq() - seq)
}

// settle ends the hold of a pending batch once the delivery that
// submitted it returned: it replays the batch when the state is still
// the recorded one, under the same collective watchdog, and the window
// up to its completion is clear, and submits it in its reserved place
// otherwise.
func (r *Liger) settle() {
	if r.pending == nil {
		return
	}
	eng, rec := r.node.Engine(), r.pendingRec
	if r.replayable() && rec.Timeout == r.node.CollectiveTimeout() && eng.QuietThrough(eng.Now()+rec.Duration) {
		b := r.pending
		r.pending, r.pendingRec = nil, nil
		r.replays++
		r.scheduler.Replay(b, rec)
		return
	}
	r.flush()
}

// flush submits a pending batch to the scheduler now, in the place in
// the event order its submit reserved. Everything that reaches the
// scheduler flushes first.
func (r *Liger) flush() {
	b, rec := r.pending, r.pendingRec
	if b == nil {
		return
	}
	r.pending, r.pendingRec = nil, nil
	r.node.Engine().InReserved(r.pendingSeq, rec.Seqs, func() { r.scheduler.Submit(b) })
}

// record stores the outcome of the recorded batch b, which completed as
// c, on its shape's plan-cache entry, unless the run strayed from the
// recorded state on the way.
func (r *Liger) record(c Completion, b *liger.Batch) {
	r.recording = nil
	if c.Failed || r.node.HealthChanges() != r.recHealth || r.node.CollectiveTimeout() != r.recTimeout ||
		!r.replayable() {
		return
	}
	r.node.ReadTally(&r.tally)
	work, ok := r.tally.Since(r.recTally)
	if !ok {
		return
	}
	b.SetReplay(liger.NewReplay(c.Done-c.Submitted, r.recTimeout, r.recSeqs, work, r.scheduler.Stats().Since(r.recStats)))
}
