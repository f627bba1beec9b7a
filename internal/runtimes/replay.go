package runtimes

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"liger/internal/gpusim"
	"liger/internal/liger"
	"liger/internal/simclock"
)

// Iteration replay. A serving loop submits each iteration from the
// completion of the one before, so the iteration starts on a drained
// node with nothing else in flight. Such a solo iteration takes the same
// time and does the same work at every start instant (liger.Replay), so
// the runtime answers it from a per-shape record: one completion event
// instead of the simulation. Every condition below keeps the answer
// exact; when one fails the batch is simulated as it always was.
//
//  1. Chained or sharded: the submit happens inside this runtime's own
//     completion delivery, or the node's engine is a shard of a sharded
//     executor (simclock.Engine.Shard), where a posted dispatch submits
//     as well (Fleet replicas, Disagg prefill nodes). No other batch is
//     waiting or in flight either way. Batch-mode drivers on one engine
//     submit from arrival events and never replay.
//  2. Probed state: the node is drained and healthy (speed and link
//     factors 1), no tracer is attached, the scheduler is settled (warm,
//     no journal, no adaptive contention), the runtime is not
//     reconfiguring, and the batch's workspace fits at submit.
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
// The record comes from a probe node, not from the run itself: a
// private copy of the node, warm and drained, with an engine of its own
// (probe). The first submit of a shape that meets conditions 1 and 2
// runs the shape's plan there once, at full depth (liger.Batch.Detached);
// under Hybrid sync the probe's scheduler fast-forwards the steady
// layers, as the runtime's own would. That run is the record
// (liger.Probe.Record). It goes on the shape's plan-cache entry, under
// the node's world (liger.World), and the submit replays at once. A
// shape whose probe failed or did not complete is marked and simulated
// as always.
//
// A record is a pure function of its plan and its world, so the runtimes
// of a cluster share one record store (Records): the plan cache, with
// the records on its entries, and a probe node per world. A node replays
// a record another node synthesized in its world, and each shape is
// synthesized once per world.
//
// Where the node folded its followers under Hybrid sync, the probe node
// folds the lead with them (gpusim.Node.FoldLed), so a probe simulates
// one device instead of two. The lead alone records the pre-launch
// trigger, which delays its later launches by an issue gap; when that
// would let the followers run something earlier than the lead, the probe
// node reports it (gpusim.Node.Diverged). The runtime then discards the
// shape's probes and that node, and probes the shape again, and every
// later shape of its world, on a probe node that keeps the lead apart,
// as the runtime's node does: a model whose kernels are short enough
// for the gap to bind once tends to meet it in every shape.
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

	// cfg is the scheduler's configuration, which the probe node's
	// scheduler copies. records is the store the runtime shares and alive
	// the mask of the node's surviving devices.
	cfg     liger.Config
	records *Records
	alive   uint64

	// replays counts the iterations answered from a record; catchUps
	// the replays caught up and simulated after all.
	replays, catchUps int
}

// Records is a record store: the plan cache, with the records on its
// entries, and a probe node per world, shared by the Liger runtimes
// joined to it (ShareRecords). A runtime has a store of its own until
// then. The store is safe for concurrent use: the runtimes of a cluster
// run on the shards of a sharded executor, and each world's lock
// serializes its syntheses, so the first runtime to meet a shape
// synthesizes it and the others replay its record.
type Records struct {
	plans liger.Plans
	mu    sync.Mutex
	// worlds holds an entry per world that synthesized.
	worlds []*world
}

// world is the store's entry for one world: its probe node, built on the
// world's first synthesis, folding the lead where it can, and replaced
// by one that keeps the lead apart when that fold diverges, and its
// counters: the records synthesized, the shapes marked and the shapes
// probed again with the lead apart. Its lock guards it all.
type world struct {
	key                              liger.World
	mu                               sync.Mutex
	probe                            *probe
	synthesized, fallbacks, reprobes int
}

// ShareRecords joins the Liger runtimes among rts to one new record
// store, which replaces the store each held, and returns it. They must
// run on the same hardware with the same scheduler configuration and
// serve the same model with compilers configured alike, as the nodes of
// a cluster built from one set of options do; it refuses runtimes that
// differ. Call it before any of them runs.
func ShareRecords(rts []Runtime) (*Records, error) {
	s := new(Records)
	var first *Liger
	for _, rt := range rts {
		r, ok := rt.(*Liger)
		if !ok {
			continue
		}
		if first == nil {
			first = r
		} else if r.node.Spec() != first.node.Spec() || r.cfg != first.cfg || r.assembler.Spec() != first.assembler.Spec() {
			return nil, fmt.Errorf("runtimes: a record store joins Liger runtimes of one hardware, configuration and model")
		}
		r.records = s
		r.assembler.Share(&s.plans)
	}
	return s, nil
}

// RecordStats counts a record store's records: those its plan cache
// holds and the shapes it marks, the records its probe nodes synthesized
// and the shapes they marked, and the shapes probed again with the lead
// apart. With no plan evicted, Held equals Synthesized and Marked equals
// Fallbacks: each shape was synthesized once per world.
type RecordStats struct {
	Held, Marked, Synthesized, Fallbacks, Reprobes int
}

// Stats returns the store's counters. Read them after the runtimes ran.
func (s *Records) Stats() RecordStats {
	var st RecordStats
	st.Held, st.Marked = s.plans.Records()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.worlds {
		w.mu.Lock()
		st.Synthesized += w.synthesized
		st.Fallbacks += w.fallbacks
		st.Reprobes += w.reprobes
		w.mu.Unlock()
	}
	return st
}

// worldOf returns the store's entry for world k, adding it on first use.
// A store sees a handful of worlds.
func (s *Records) worldOf(k liger.World) *world {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.worlds {
		if w.key == k {
			return w
		}
	}
	w := &world{key: k}
	s.worlds = append(s.worlds, w)
	return w
}

// replayable reports whether the node and scheduler are in the state a
// replay reproduces (condition 2 without the workspace).
func (r *Liger) replayable() bool {
	n := r.node
	return !r.off && !r.reconfiguring && !r.impossible && n.Tracer() == nil &&
		r.scheduler.Settled() && n.Drained() && n.MinHealth() == 1 && n.MinLinkHealth() == 1
}

// submit hands b to the scheduler: replayed when the submit is chained
// or on a shard and its shape has a record or gets one synthesized, and
// simulated otherwise.
func (r *Liger) submit(b *liger.Batch) {
	eng := r.node.Engine()
	if r.depth == 0 && !eng.Shard() || !r.replayable() || !r.scheduler.HoldWorkspace(b) {
		r.scheduler.Submit(b)
		return
	}
	w := r.currentWorld()
	rec, marked := r.assembler.Replay(b, w)
	if rec == nil && !marked {
		rec = r.synthesize(b, w)
	}
	if rec != nil {
		first := eng.ReserveN(rec.Seqs)
		if r.scheduler.Replay(b, rec, r.catchUpFn) {
			r.held, r.heldSeq = b, first
			return
		}
	}
	r.scheduler.Submit(b)
}

// currentWorld returns the node's world: the records it may replay.
func (r *Liger) currentWorld() liger.World {
	return liger.World{Alive: r.alive, Folded: r.node.Folded(), Timeout: r.node.CollectiveTimeout()}
}

// synthesize probes b's shape in world k, the node's, and stores its
// record on the shape's plan-cache entry, returning it. It marks the
// shape and returns nil when the probe yields no record. When the probe
// node that folds the lead diverged, the shape is probed again with the
// lead apart. A runtime sharing the store that synthesized or
// marked the shape in k meanwhile leaves nothing to probe.
func (r *Liger) synthesize(b *liger.Batch, k liger.World) *liger.Replay {
	w := r.records.worldOf(k)
	w.mu.Lock()
	defer w.mu.Unlock()
	if rec, marked := r.assembler.Replay(b, k); rec != nil || marked {
		return rec
	}
	if w.probe == nil {
		w.probe = newProbe(r.node, r.cfg, true)
	}
	p := w.probe
	ok := p.shape(b, k.Timeout)
	if p.node.Diverged() {
		w.reprobes++
		p = newProbe(r.node, r.cfg, false)
		w.probe = p
		ok = p.shape(b, k.Timeout)
	}
	var rec *liger.Replay
	if ok {
		rec, ok = p.m.Record()
	}
	if !ok {
		r.assembler.MarkUnrecordable(b, k)
		w.fallbacks++
		return nil
	}
	r.assembler.SetReplay(b, k, rec)
	w.synthesized++
	return rec
}

// probe is the private node records are synthesized on: a copy of the
// runtime's node in everything condition 2 reads or a record depends on
// — the hardware, the scheduler configuration, the surviving devices,
// the fold decision and, set before each synthesis, the collective
// watchdog — on an engine of its own. Every node of its world would
// build the same one. It stays warm and drained between
// probes. Its fold may also take the lead; lead and rep then name the
// lead and the representative, -1 otherwise.
type probe struct {
	eng       *simclock.Engine
	node      *gpusim.Node
	sched     *liger.Scheduler
	lead, rep int
	// batch is the detached batch running (liger.Batch.Detached), reused
	// from probe to probe; m is its measure, and running is set until
	// it completes.
	batch    *liger.Batch
	m        liger.Probe
	running  bool
	submitFn func(simclock.Time)
}

// newProbe builds a probe node copying node and a scheduler of cfg. With
// foldLead, where node folded under Hybrid sync, the probe node folds the
// lead too.
func newProbe(node *gpusim.Node, cfg liger.Config, foldLead bool) *probe {
	p := &probe{eng: simclock.New(), lead: -1, rep: -1}
	p.node = gpusim.MustNew(p.eng, node.Spec())
	alive := node.AliveDevices()
	switch {
	case !node.Folded():
		p.node.KeepUnfolded()
	case foldLead && cfg.Sync == liger.Hybrid:
		p.node.FoldLeads()
		p.lead, p.rep = alive[0], alive[len(alive)-1]
	}
	for d := range node.NumDevices() {
		if !slices.Contains(alive, d) {
			p.node.FailDevice(d)
		}
	}
	sched, err := liger.NewScheduler(p.node, cfg)
	if err != nil {
		panic(err) // the runtime's own scheduler was built from cfg
	}
	p.sched, p.submitFn = sched, p.submit
	sched.SetOnBatchDone(p.done)
	return p
}

// shape measures one solo iteration of b's plan into p.m under the
// collective watchdog timeout, warming the node first with one when it
// is cold. It reports false when the iteration did not start settled
// and drained or did not complete.
func (p *probe) shape(b *liger.Batch, timeout time.Duration) bool {
	p.node.SetCollectiveTimeout(timeout)
	if !p.sched.Settled() && !p.measure(b) {
		return false
	}
	return p.sched.Settled() && p.node.Drained() && p.measure(b)
}

// measure runs b's plan on the probe node into p.m.
func (p *probe) measure(b *liger.Batch) bool {
	p.batch, p.running = b.Detached(p.batch), true
	p.eng.After(0, p.submitFn)
	p.eng.Run()
	p.m.Failed = p.batch.Failed
	return !p.running
}

// submit submits the detached batch, reading the tally, counters and
// engine sequence before it.
func (p *probe) submit(simclock.Time) {
	m := &p.m
	p.readTally(&m.Before)
	m.Stats = p.sched.Stats()
	seq := p.eng.Seq()
	p.sched.Submit(p.batch)
	m.Seqs = int(p.eng.Seq() - seq)
}

// done completes the measure of the detached batch b at its completion.
func (p *probe) done(b *liger.Batch, now simclock.Time) {
	m := &p.m
	m.Duration = now - b.SubmittedAt
	p.readTally(&m.After)
	m.Stats = p.sched.Stats().Since(m.Stats)
	p.running = false
}

// readTally reads the probe node's tally into t in the layout of the
// runtime's node: a folded lead's slot gets the representative's stats,
// which it ran.
func (p *probe) readTally(t *gpusim.Tally) {
	p.node.ReadTally(t)
	if p.lead >= 0 {
		t.Devices[p.lead] = t.Devices[p.rep]
	}
}

// catchUp submits the held batch b, replayed as rec, to the scheduler
// in the place in the event order its submit reserved: the engine
// caught its replay up and moved the clock back to its submit.
func (r *Liger) catchUp(b *liger.Batch, rec *liger.Replay) {
	r.held = nil
	r.catchUps++
	r.node.Engine().InReserved(r.heldSeq, rec.Seqs, func() { r.scheduler.Submit(b) })
}
