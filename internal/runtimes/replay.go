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
//  1. Chained or sharded: the submit happens inside this runtime's own
//     completion delivery, or the node's engine is a shard of a sharded
//     executor (simclock.Engine.Shard), where a posted dispatch submits
//     as well (Fleet replicas, Disagg prefill nodes). No other batch is
//     waiting or in flight either way. Batch-mode drivers on one engine
//     submit from arrival events and never replay.
//  2. Recorded state: the node is drained and healthy (speed and link
//     factors 1) under the recorded collective watchdog, no tracer is
//     attached, the scheduler is settled (warm, no journal, no adaptive
//     contention), the runtime is not reconfiguring, and the batch's
//     workspace fits at submit.
//  3. A bounded run: the run in progress does not stop before the
//     replayed completion. On a shard that bound is the executor's
//     deadline: its windows only pause the shard, and an event another
//     shard posts into the replayed window is queued in a place that
//     does not depend on the windows, so it catches the replay up when
//     it fires like any other event (simclock.Engine.Defer).
//  4. Caught up when touched: the submit reserves the sequence numbers
//     its simulated submit takes, and the engine defers the simulation
//     up to the replayed completion. Other events fire in the window
//     meanwhile. Should one of them, or the rest of the delivery that
//     submitted the batch, call into the node, the scheduler or this
//     runtime, schedule an event into the window, or query the engine's
//     queue, the engine first catches the iteration up: it moves the
//     clock back to the submit, the batch is submitted there in its
//     reserved place in the event order, exactly as a plain run submits
//     it, and the node's events up to the clock's position fire. A
//     serving loop's arrivals only join the batcher's wait queue, so the
//     iterations they land in replay.
//
// A recording is taken from a simulated iteration that met conditions 1
// and 2 at submit and again at completion, with no other submit, health
// change, watchdog change or failed completion in between.
type replayer struct {
	// off disables replay (tests: the simulated oracle).
	off bool
	// depth counts the completion deliveries in progress.
	depth int

	// held is the batch a replay runs, with the first of the sequence
	// numbers reserved for its submit, until it completes or is caught
	// up. catchUpFn is the bound catchUp, made once.
	held      *liger.Batch
	heldSeq   uint64
	catchUpFn func(*liger.Batch, *liger.Replay)

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

	// replays counts the iterations answered from a record; catchUps
	// the replays caught up and simulated after all.
	replays, catchUps int
}

// replayable reports whether the node and scheduler are in the state a
// replay records and reproduces (condition 2 without the workspace).
func (r *Liger) replayable() bool {
	n := r.node
	return !r.off && !r.reconfiguring && !r.impossible && n.Tracer() == nil &&
		r.scheduler.Settled() && n.Drained() && n.MinHealth() == 1 && n.MinLinkHealth() == 1
}

// submit hands b to the scheduler: replayed when its shape has a record
// and the submit is chained or on a shard, recorded when it has none,
// and simulated in any case but the first.
func (r *Liger) submit(b *liger.Batch) {
	r.recording = nil
	eng := r.node.Engine()
	if r.depth == 0 && !eng.Shard() || !r.replayable() || !r.scheduler.HoldWorkspace(b) {
		r.scheduler.Submit(b)
		return
	}
	if rec := b.Replay(); rec != nil {
		if rec.Timeout == r.node.CollectiveTimeout() {
			first := eng.ReserveN(rec.Seqs)
			if r.scheduler.Replay(b, rec, r.catchUpFn) {
				r.held, r.heldSeq = b, first
				return
			}
		}
		r.scheduler.Submit(b)
		return
	}
	r.recording, r.recHealth, r.recTimeout = b, r.node.HealthChanges(), r.node.CollectiveTimeout()
	r.recStats = r.scheduler.Stats()
	r.node.ReadTally(&r.recTally)
	seq := eng.Seq()
	r.scheduler.Submit(b)
	r.recSeqs = int(eng.Seq() - seq)
}

// catchUp submits the held batch b, replayed as rec, to the scheduler
// in the place in the event order its submit reserved: the engine
// caught its replay up and moved the clock back to its submit.
func (r *Liger) catchUp(b *liger.Batch, rec *liger.Replay) {
	r.held = nil
	r.catchUps++
	r.node.Engine().InReserved(r.heldSeq, rec.Seqs, func() { r.scheduler.Submit(b) })
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
