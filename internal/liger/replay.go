package liger

import (
	"math/bits"
	"time"

	"liger/internal/gpusim"
	"liger/internal/parallel"
	"liger/internal/simclock"
)

// Iteration replay. A batch run solo on a settled scheduler (Settled) and
// a drained, healthy node takes the same time and does the same work at
// every start instant: the simulation only ever reads time differences.
// Every decoder layer runs the same kernels, so that outcome is also
// affine in the layer count. runtimes.Liger decides when a replay is
// exact and synthesizes a shape's record from probes of its plan cut to
// 1, 2 and 3 layers (Batch.Cut, Extend); the shape's plan-cache entry
// keeps the record, one per World, and the scheduler runs it.

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
// (Extend).
type World struct {
	Alive   uint64
	Folded  bool
	Timeout time.Duration
}

// Replay returns the record of b's shape in world w, nil when there is
// none, and reports whether the shape is marked in w as one whose probes
// do not extend to a record (MarkNonlinear). b is a batch a assembled.
func (a *Assembler) Replay(b *Batch, w World) (rec *Replay, marked bool) {
	e := b.entry
	if e == nil {
		return nil, false
	}
	a.plans.mu.Lock()
	defer a.plans.mu.Unlock()
	for _, r := range e.records {
		if r.world == w {
			if r.rec == nonlinear {
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

// nonlinear stands in a plan-cache entry's record of a world for a
// shape marked by MarkNonlinear.
var nonlinear = new(Replay)

// MarkNonlinear marks b's shape in world w as one whose probes do not
// extend to a record (Extend refused them), so none is synthesized
// again. Like a record, the mark lives with the shape's plan-cache
// entry. b is a batch a assembled.
func (a *Assembler) MarkNonlinear(b *Batch, w World) { a.SetReplay(b, w, nonlinear) }

// Layers returns how many times b's plan repeats its layer block.
func (b *Batch) Layers() int { return b.plan.Layers }

// Cut returns a batch of b's shape whose plan is b's cut to layers
// layers, 1 <= layers <= b.Layers(): the same Pre, layer block and
// Post, the block repeated layers times. It is assembled outside the
// plan cache, so it has no record, holds no workspace and takes no
// batch id from the assembler; a probe node runs it. reuse, when not
// nil, is a batch an earlier Cut returned, no longer running; Cut
// resets and returns it, with the plan view it owns, so probing
// allocates nothing per shape.
func (b *Batch) Cut(layers int, reuse *Batch) *Batch {
	p := reuse
	if p == nil {
		p = &Batch{plan: new(parallel.Plan)}
	}
	view := p.plan
	*view = *b.plan
	view.Layers = layers
	*p = Batch{ID: b.ID, Workload: b.Workload, Req: -1, plan: view,
		kernelDoneFn: p.kernelDoneFn, failFn: p.failFn}
	return p
}

// Probe is the measure of one solo iteration of a cut plan (Batch.Cut)
// on a warm, drained private node: the span from submit to completion,
// the engine sequence numbers the submit took, whether the batch
// failed, the node's tallies at submit and at completion, and the
// counters the iteration added to its scheduler (Stats.Since).
type Probe struct {
	Duration      time.Duration
	Seqs          int
	Failed        bool
	Before, After gpusim.Tally
	Stats         Stats
}

// moved returns the mask of the devices whose stats the iteration moved.
func (q *Probe) moved() uint64 {
	var mask uint64
	for i, d := range q.After.Devices {
		if d != q.Before.Devices[i] {
			mask |= 1 << i
		}
	}
	return mask
}

// fields appends the record fields q measured to f: the duration, the
// submit's sequence numbers, the kernel and collective ids and the
// scheduler counters (the first probeFields), then each device's busy
// times and kernel count.
func (q *Probe) fields(f []int64) []int64 {
	st := &q.Stats
	f = append(f, int64(q.Duration), int64(q.Seqs),
		int64(q.After.Kernels-q.Before.Kernels), int64(q.After.Collectives-q.Before.Collectives),
		int64(st.Rounds), int64(st.PrimaryKernels), int64(st.SecondaryKernels), int64(st.Decompositions),
		int64(st.EmptySecondary), int64(st.SecondaryOverruns), int64(st.DegradedFallbacks), int64(st.DegradedRebalances))
	for i, a := range q.After.Devices {
		b := q.Before.Devices[i]
		f = append(f, int64(a.ComputeBusy-b.ComputeBusy), int64(a.CommBusy-b.CommBusy),
			int64(a.OverlapBusy-b.OverlapBusy), int64(a.KernelsRun-b.KernelsRun))
	}
	return f
}

// probeFields counts the fields of a probe before its devices'.
const probeFields = 12

// Extend returns the record of a solo iteration of a plan of layers
// layers from probes p of that plan cut to 1, 2 and 3 layers. Every field of the record is p[0]'s
// plus layers-1 times its step from p[0] to p[1]. Extend reports false,
// returning no record, when a probe failed, the probes' devices did not
// all move alike, or a field does not take the same step from p[1] to
// p[2]: the duration, the submit's sequence numbers, the kernel and
// collective ids, every scheduler counter, and each device's busy times
// and kernel count. A plan of at most 3 layers needs no extension:
// p[layers-1], probed at the plan's own depth, is its record, and the
// other probes are not read.
func Extend(p *[3]Probe, layers int) (*Replay, bool) {
	base, check := &p[0], layers > len(p)
	if !check {
		base = &p[layers-1]
	}
	mask, n := base.moved(), len(base.After.Devices)
	if n > 64 || base.Failed || check && (p[1].Failed || p[2].Failed || p[1].moved() != mask || p[2].moved() != mask) {
		return nil, false
	}
	var buf [3][probeFields + 4*64]int64
	f := base.fields(buf[0][:0])
	if check {
		f1, f2 := p[1].fields(buf[1][:0]), p[2].fields(buf[2][:0])
		if len(f1) != len(f) || len(f2) != len(f) {
			return nil, false
		}
		for j := range f {
			step := f1[j] - f[j]
			if f2[j]-f1[j] != step {
				return nil, false
			}
			f[j] += int64(layers-1) * step
		}
	}
	w := gpusim.Work{Kernels: int(f[2]), Collectives: int(f[3]), Mask: mask,
		Devices: make([]gpusim.DeviceStats, 0, bits.OnesCount64(mask))}
	for i := range n {
		if d := f[probeFields+4*i:]; mask&(1<<i) != 0 {
			w.Devices = append(w.Devices, gpusim.DeviceStats{ComputeBusy: simclock.Time(d[0]),
				CommBusy: simclock.Time(d[1]), OverlapBusy: simclock.Time(d[2]), KernelsRun: int(d[3])})
		}
	}
	sched := Stats{Rounds: int(f[4]), PrimaryKernels: int(f[5]), SecondaryKernels: int(f[6]),
		Decompositions: int(f[7]), EmptySecondary: int(f[8]), SecondaryOverruns: int(f[9]),
		DegradedFallbacks: int(f[10]), DegradedRebalances: int(f[11])}
	return NewReplay(time.Duration(f[0]), int(f[1]), w, sched), true
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
