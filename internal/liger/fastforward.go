package liger

import (
	"math"
	"slices"
	"sync"

	"liger/internal/gpusim"
	"liger/internal/simclock"
)

// Period fast-forward (docs/PERF.md, "Period fast-forward"). In steady
// state the rounds repeat every few decoder layers: a period is a whole
// number of the primary batch's layers, one when the secondary batches
// keep their place in theirs and up to ffMaxLayers when a decomposed
// secondary moves on by a fraction of a layer per primary layer. In a
// period every batch of the processing list moves on by whole layers
// and the node does the same work, shifted in time. At each round start
// the scheduler checks whether it and its node are in the state they
// were in one period earlier, shifted (gpusim.Warp). When they are,
// nothing but that state decides the next periods, until an event from
// outside fires or a batch leaves its layer blocks, so the scheduler
// skips k of them at once: it takes its node's pending events off the
// engine and defers the k periods (simclock.Engine.DeferSeqs). At their
// end it moves every batch's cursor on by k periods, shifts the node's
// state and events by k periods (gpusim.Node.Shift) and adds k periods'
// work to every counter. Anything that touches the node or the
// scheduler before that, or schedules an event into the skipped span,
// catches the periods up: the scheduler puts its node's events back
// where they were and simulates them.
//
// The check costs O(processing batches) per round and lag until the
// round inputs, every batch's place in its layer, repeat those of an
// earlier round start; the shortest such lag is the candidate's period,
// and only a period later is the whole state encoded and compared. A
// jump needs the encodings to be equal: a jump never rests on round
// inputs alone. It also needs the period before it to have run nothing
// but the node (the engine took and fired only the node's sequence
// numbers and events), and it stops before any batch enters its last
// layer and before the next event the engine holds from outside. It
// never fires with a journal, with AdaptiveContention or outside Hybrid
// sync.

// ffMaxLayers is the longest period looked for, in layers of the
// primary batch, and ffRounds the round starts whose inputs are kept for
// it: a layer is four rounds (compute, all-reduce, compute, all-reduce).
const (
	ffMaxLayers = 8
	ffRounds    = 4 * ffMaxLayers
)

// fastForward is the scheduler's period detector and the jump in
// progress.
type fastForward struct {
	// off disables the fast-forward (tests: the simulated oracle).
	off bool
	// inputs holds the round inputs of the last ffRounds round starts.
	inputs ffInputs
	// det is the rest, taken from detectors at the first round start
	// that may jump and given back when no batch is live: a scheduler
	// that never gets there, such as one under InterStreamOnly sync,
	// holds none.
	det *ffDetector
	// doneFn, caughtF and advance are the scheduler's jumped,
	// caughtUpJump and advanceOf, made once.
	doneFn  simclock.Event
	caughtF func()
	advance func(batch int) int
	// watch, set by tests, sees every round start the scheduler
	// simulates, and every one a jump lands on (landed).
	watch func(landed bool, now simclock.Time)
}

// detectors recycles detectors between the schedulers of a process:
// the nodes of a fleet and the runs of a sweep take turns with a few.
var detectors = sync.Pool{New: func() any { return new(ffDetector) }}

// ffDetector is the state a fast-forward encodes and jumps with.
type ffDetector struct {
	// enc is the encoding of the last round start encoded, cand: the
	// round start a period later is encoded over it and compared. cur
	// is the round start being encoded.
	enc       gpusim.Encoding
	cand, cur ffState
	w         gpusim.Warp
	held      []*gpusim.Event
	// The jump in progress: the round start it left, the periods it
	// skips, what a period does, each batch's layers per period, aligned
	// with the processing list, and the tape positions of the period
	// before it.
	at       simclock.Time
	k        int
	p        gpusim.Period
	delta    Stats
	adv      []int
	from, to int
}

// ffInputs are the inputs of the round start being checked (cur) and of
// the last ffRounds round starts, by round modulo ffRounds: each
// processing batch's id, layer, offset in its layer block and split
// depth (the scales of a split head). The kept ones share one backing
// slice: entry e's i-th batch is at at[ffWords*(e*stride+i)]. first is
// the first round kept since the last reset, -1 before it.
type ffInputs struct {
	round, n      [ffRounds]int
	stride, first int
	at, cur       []int
}

// ffWords is the words an input holds per batch.
const ffWords = 4

func (in *ffInputs) reset() {
	for e := range in.round {
		in.round[e] = -1
	}
	in.first = -1
}

// read takes the processing list's inputs into cur.
func (in *ffInputs) read(processing []*Batch) {
	in.cur = in.cur[:0]
	for _, b := range processing {
		l, j := b.plan.Layer(b.pos)
		in.cur = append(in.cur, b.ID, l, j, len(b.scales))
	}
}

// store keeps cur as round r's inputs.
func (in *ffInputs) store(r int) {
	n := len(in.cur) / ffWords
	if n > in.stride {
		// Every entry held fewer batches, so none could match.
		in.stride = n
		in.at = make([]int, ffWords*ffRounds*n)
		in.reset()
	}
	if in.first < 0 {
		in.first = r
	}
	e := r % ffRounds
	in.round[e], in.n[e] = r, n
	copy(in.at[ffWords*e*in.stride:], in.cur)
}

// repeats reports whether cur, round r's inputs, repeats those lag
// rounds earlier: the same batches, in layer blocks, at the same offsets
// and split depths, none behind and at least one moved on. room is then
// the periods of lag rounds left before a batch that moves on enters its
// last layer, at that pace.
func (in *ffInputs) repeats(r, lag int, processing []*Batch) (room int, ok bool) {
	e := (r - lag) % ffRounds
	if in.round[e] != r-lag || in.n[e] != len(processing) {
		return 0, false
	}
	prev := in.at[ffWords*e*in.stride:]
	room = math.MaxInt
	for i, b := range processing {
		c, p := in.cur[ffWords*i:ffWords*(i+1)], prev[ffWords*i:ffWords*(i+1)]
		if c[0] != p[0] || c[2] < 0 || c[2] != p[2] || c[3] != p[3] || c[1] < p[1] {
			return 0, false
		}
		if a := c[1] - p[1]; a > 0 {
			room = min(room, (b.plan.Layers-2-c[1])/a)
		}
	}
	return room, room != math.MaxInt
}

// shortest returns the shortest lag at which cur, round r's inputs,
// repeats, for a new candidate: the lag is its period, and it jumps a
// period later, so room is a period less than repeats'. Only lags back
// to the first round kept are searched. The primary moves on at least a
// layer per period, so no lag leaves room when a batch is outside its
// layer blocks or the primary is within three layers of its last; the
// lags are not searched then.
func (in *ffInputs) shortest(r int, processing []*Batch) (lag, room int, ok bool) {
	if in.first < 0 {
		return 0, 0, false
	}
	for i := 0; i < len(in.cur); i += ffWords {
		if in.cur[i+2] < 0 {
			return 0, 0, false
		}
	}
	if processing[0].plan.Layers-2-in.cur[1] < 2 {
		return 0, 0, false
	}
	for lag = 1; lag <= min(ffRounds, r-in.first); lag++ {
		if room, ok = in.repeats(r, lag, processing); ok {
			return lag, room - 1, true
		}
	}
	return 0, 0, false
}

// ffState is an encoded round start, the rounds of its period, and the
// counters a period is measured by: the engine's clock, sequence number
// and fired events, the node's own sequence numbers and events, its
// tally, the scheduler's counters and the node's tape position. same
// reports whether its encoding equals the one before it. tails and
// layers are its kernels' names and rests its batches' split heads'
// names, "" for a head that is not split, split by gpusim.LayerName.
type ffState struct {
	round, period  int
	same           bool
	tails, rests   []string
	layers, restLs []int
	pos            []int
	now            simclock.Time
	seq, fired     uint64
	own            [2]uint64
	tally          gpusim.Tally
	stats          Stats
	tape           int
}

// ffMinLayers is the fewest layers a plan needs for a jump: the primary
// batch moves on at least a layer every period, and a jump needs it to
// be a period into its layers at a candidate and a period clear of its
// last layer after the next.
const ffMinLayers = 5

// ffEncodeCap is the room an encoding buffer starts with: an OPT-30B
// round start on four devices takes 266 words with one batch in flight
// and 532 with three.
const ffEncodeCap = 640

func (f *fastForward) reset() {
	f.inputs.reset()
	if f.det != nil {
		f.det.cand.round = -1
	}
}

// release gives the detector back to detectors, dropping what it held
// of the scheduler and its node and keeping its buffers.
func (f *fastForward) release() {
	d := f.det
	if d == nil {
		return
	}
	f.det = nil
	d.w.Release()
	for _, st := range []*ffState{&d.cand, &d.cur} {
		clear(st.tails)
		clear(st.rests)
	}
	d.p.Advance = nil
	detectors.Put(d)
}

// fastForward checks the round start at now and, when it may, skips
// periods from here; it reports whether it did, and the round then
// launches at their end.
func (s *Scheduler) fastForward(now simclock.Time) bool {
	f := &s.ff
	if f.off {
		return false
	}
	trig, local := s.node.Engine().Firing()
	if s.cfg.Sync != Hybrid || s.journalCap > 0 || s.cfg.AdaptiveContention || s.quiescing ||
		s.replaying != nil || !local || len(s.processing) == 0 || len(s.live) != len(s.processing) ||
		s.processing[0].plan.Layers < ffMinLayers {
		f.reset()
		s.node.TapeMark(-1)
		return false
	}
	r := s.stats.Rounds
	f.inputs.read(s.processing)
	// due is the round start the candidate is compared at, -1 when there
	// is none or it is stale.
	keep, due := math.MaxInt, -1
	if d := f.det; d != nil && d.cand.round >= 0 && d.cand.round+d.cand.period >= r {
		keep, due = d.cand.tape, d.cand.round+d.cand.period
	}
	mark := s.node.TapeMark(keep)
	if due > r {
		// The candidate's period is still running.
		f.inputs.store(r)
		return false
	}
	// room is the periods left before a batch that moves on enters its
	// last layer, at the pace of the period just run.
	period, room, ok := 0, 0, false
	if due == r {
		period = f.det.cand.period
		room, ok = f.inputs.repeats(r, period, s.processing)
	}
	if !ok {
		// No candidate, or its inputs did not repeat: look for a new one.
		due = -1
		period, room, ok = f.inputs.shortest(r, s.processing)
	}
	f.inputs.store(r)
	if !ok || room < 1 {
		// The inputs do not repeat, or a batch enters its last layer too
		// soon.
		if f.det != nil {
			f.det.cand.round = -1
		}
		return false
	}
	if f.det == nil {
		f.det = detectors.Get().(*ffDetector)
		f.det.cand.round = -1
	}
	d := f.det
	if !s.capture(now, trig, mark, period) {
		d.cand.round = -1
		return false
	}
	if due == r && s.tryJump(now, trig) {
		return true
	}
	d.cand, d.cur = d.cur, d.cand
	return false
}

// capture encodes the round start at now, which the engine's event trig
// set off, with the tape at mark, into the detector's current state, to
// be compared period rounds later. It reports false when the state does
// not encode.
func (s *Scheduler) capture(now simclock.Time, trig uint64, mark, period int) bool {
	f := s.ff.det
	st := &f.cur
	same, ok := s.encode(now, trig)
	if !ok {
		return false
	}
	eng := s.node.Engine()
	tails, layers, _ := f.w.Kernels()
	st.round, st.period, st.same = s.stats.Rounds, period, same
	clear(st.tails)
	st.tails = append(st.tails[:0], tails...)
	st.layers = append(st.layers[:0], layers...)
	clear(st.rests)
	st.rests, st.restLs, st.pos = st.rests[:0], st.restLs[:0], st.pos[:0]
	for _, b := range s.processing {
		l, rest := -1, ""
		if len(b.scales) > 0 {
			l, rest = gpusim.LayerName(b.rest.Name)
		}
		st.rests = append(st.rests, rest)
		st.restLs = append(st.restLs, l)
		st.pos = append(st.pos, b.pos)
	}
	st.now, st.seq, st.fired = now, eng.Seq(), eng.Fired()
	seqs, fired := s.node.Own()
	st.own = [2]uint64{seqs, fired}
	s.node.ReadTally(&st.tally)
	st.stats, st.tape = s.stats, mark
	return true
}

// tryJump jumps from the round start the detector just captured, at now,
// which the engine's event trig set off, when it repeats the candidate a
// period earlier, and reports whether it did.
func (s *Scheduler) tryJump(now simclock.Time, trig uint64) bool {
	f := s.ff.det
	prev, cur := &f.cand, &f.cur
	eng := s.node.Engine()
	if !cur.same || !slices.Equal(prev.tails, cur.tails) || !slices.Equal(prev.rests, cur.rests) {
		return false
	}
	dSeq := cur.seq - prev.seq
	if dSeq != cur.own[0]-prev.own[0] || cur.fired-prev.fired != cur.own[1]-prev.own[1] {
		// Something besides the node ran in the period.
		return false
	}
	delta := cur.stats.Since(prev.stats)
	if delta.Rounds != prev.period || delta.BatchesDone != 0 {
		return false
	}
	// Each batch's layers per period, and the periods before one enters
	// its last layer.
	k := math.MaxInt
	f.adv = f.adv[:0]
	for i, b := range s.processing {
		l, _ := b.plan.Layer(cur.pos[i])
		pl, _ := b.plan.Layer(prev.pos[i])
		a := l - pl
		f.adv = append(f.adv, a)
		if a > 0 {
			k = min(k, (b.plan.Layers-2-l)/a)
		}
	}
	if k == math.MaxInt || k < 1 {
		return false
	}
	// A layer kernel's name moves on with its batch; any other stays.
	_, _, batches := f.w.Kernels()
	for i, l := range prev.layers {
		if l >= 0 {
			l += s.advanceOf(batches[i])
		}
		if l != cur.layers[i] {
			return false
		}
	}
	for i, l := range prev.restLs {
		if l >= 0 {
			l += f.adv[i]
		}
		if l != cur.restLs[i] {
			return false
		}
	}
	dt := now - prev.now
	if dt <= 0 {
		return false
	}
	// The jump ends before the next event from outside the node.
	s.node.Suspend(&f.w)
	if next, ok := eng.NextEventAt(); ok {
		k = min(k, int((next-1-now)/dt))
	}
	if k >= 1 {
		s.setPeriod(dt, dSeq, prev, delta)
		f.at, f.k, f.from, f.to = now, k, prev.tape, cur.tape
		ff := &s.ff
		if ff.doneFn == nil {
			ff.doneFn, ff.caughtF, ff.advance = s.jumped, s.caughtUpJump, s.advanceOf
		}
		f.p.Advance = ff.advance
		n := k * int(dSeq)
		if eng.DeferSeqs(now+simclock.Time(k)*dt, trig+uint64(n), n, ff.doneFn, ff.caughtF) {
			return true
		}
	}
	s.node.Shift(&f.w, &f.p, 0, 0, 0)
	return false
}

// setPeriod measures a period: dt long, taking seqs sequence numbers,
// from the round start prev to now, delta its scheduler counters.
func (s *Scheduler) setPeriod(dt simclock.Time, seqs uint64, prev *ffState, delta Stats) {
	f := s.ff.det
	t := gpusim.Tally{Devices: f.p.Work[:0]}
	s.node.ReadTally(&t)
	f.p.Dt, f.p.Seqs = dt, seqs
	f.p.Kernels, f.p.Collectives = t.Kernels-prev.tally.Kernels, t.Collectives-prev.tally.Collectives
	for i := range t.Devices {
		t.Devices[i] = t.Devices[i].Sub(prev.tally.Devices[i])
	}
	f.p.Work = t.Devices
	f.delta = delta
}

// encode writes the scheduler's and its node's state at the round start
// at now, which the engine's event trig set off, over the detector's
// last encoding, and reports whether it came out the same and whether
// the state encodes.
func (s *Scheduler) encode(now simclock.Time, trig uint64) (same, ok bool) {
	f := s.ff.det
	eng := s.node.Engine()
	f.enc.Reserve(ffEncodeCap)
	f.enc.Begin()
	put := f.enc.Put
	put(eng.Seq() - trig)
	put(uint64(s.rep))
	put(uint64(s.repCopies))
	put(uint64(len(s.alive)))
	for _, d := range s.alive {
		put(uint64(d))
	}
	put(uint64(len(s.waiting)))
	for _, b := range s.waiting {
		put(uint64(b.ID))
	}
	put(uint64(len(s.processing)))
	for _, b := range s.processing {
		_, j := b.plan.Layer(b.pos)
		put(uint64(b.ID))
		put(uint64(j))
		put(uint64(b.pendingKernels))
		put(boolBits(b.Failed, b.workspaceHeld, b.completed))
		put(uint64(len(b.scales)))
		for _, sc := range b.scales {
			put(math.Float64bits(sc))
		}
		if len(b.scales) > 0 {
			r := &b.rest
			put(uint64(r.Class))
			put(uint64(r.Duration))
			put(math.Float64bits(r.ComputeDemand))
			put(math.Float64bits(r.MemBWDemand))
			put(boolBits(r.Collective))
		}
	}
	f.w.Forget()
	f.w.Know(s.nextRound, 0)
	put(uint64(len(s.obsLive)))
	for i, o := range s.obsLive {
		f.w.Know(o.onPrim, uint64(1+2*i))
		f.w.Know(o.onSec, uint64(2+2*i))
		put(uint64(o.threshold))
		put(uint64(o.pending))
		put(boolBits(o.primEnded))
		if o.primEnded {
			put(uint64(o.primAt - now))
		}
	}
	f.held = append(append(f.held[:0], s.lastComputeEnd...), s.lastCommEnd...)
	ok = s.node.EncodeState(&f.w, &f.enc, f.held)
	clear(f.held)
	return f.enc.End(), ok
}

func boolBits(bs ...bool) uint64 {
	var v uint64
	for i, b := range bs {
		if b {
			v |= 1 << i
		}
	}
	return v
}

// jumped ends a jump at the round start k periods on: the scheduler and
// its node move on by k periods and the round launches.
func (s *Scheduler) jumped(now simclock.Time) {
	f := s.ff.det
	k := f.k
	s.node.Shift(&f.w, &f.p, k, f.from, f.to)
	for i, b := range s.processing {
		if a := f.adv[i]; a > 0 {
			b.pos += k * a * b.plan.LayerLen()
			if len(b.scales) > 0 {
				b.rest.Name = gpusim.ShiftName(b.rest.Name, k*a)
			}
		}
	}
	dt := simclock.Time(k) * f.p.Dt
	for _, o := range s.obsLive {
		if o.primEnded {
			o.primAt += dt
		}
	}
	st, d := &s.stats, &f.delta
	st.Rounds += k * d.Rounds
	st.PrimaryKernels += k * d.PrimaryKernels
	st.SecondaryKernels += k * d.SecondaryKernels
	st.Decompositions += k * d.Decompositions
	st.EmptySecondary += k * d.EmptySecondary
	st.SecondaryOverruns += k * d.SecondaryOverruns
	st.DegradedFallbacks += k * d.DegradedFallbacks
	st.DegradedRebalances += k * d.DegradedRebalances
	st.FastForwarded += k * d.Rounds
	s.ff.reset()
	if s.ff.watch != nil {
		s.ff.watch(true, now)
	}
	s.maybeStartRound(now)
}

// caughtUpJump catches a jump up: the node's events go back where they
// were, and the round launches at the round start the jump left.
func (s *Scheduler) caughtUpJump() {
	f := s.ff.det
	s.node.Shift(&f.w, &f.p, 0, 0, 0)
	s.ff.reset()
	s.maybeStartRound(f.at)
}

// advanceOf returns the layers batch id moves on by per period of the
// jump in progress: 0 for a batch not in the processing list.
func (s *Scheduler) advanceOf(id int) int {
	for i, b := range s.processing {
		if b.ID == id && i < len(s.ff.det.adv) {
			return s.ff.det.adv[i]
		}
	}
	return 0
}
