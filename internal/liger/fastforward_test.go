package liger_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/runner"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// ffSetup is one Liger run of the period fast-forward tests: the node,
// model and scheduler configuration, the arrivals, a fault schedule, and
// instants the run stops at and reads the scheduler's counters.
type ffSetup struct {
	node     hw.Node
	spec     model.Spec
	cfg      liger.Config
	arrivals []serve.Arrival
	faults   *faults.Schedule
	stops    []time.Duration
	journal  bool
	// touchEvery, when positive, steps the engine by hand and reads the
	// scheduler's queue lengths after every touchEvery-th event.
	touchEvery int
	// watch, when set, is installed on the scheduler (liger.WatchRounds).
	watch func(landed bool, st liger.RoundState)
}

// ffOutcome is what a run did: its completions, every device's stats,
// the scheduler's counters, the engine's next sequence number and, when
// recorded, the node's records.
type ffOutcome struct {
	done    []runtimes.Completion
	devices []gpusim.DeviceStats
	stats   liger.Stats
	seq     uint64
	rec     *trace.Recorder
}

// run serves the setup's arrivals on a fresh engine, with the period
// fast-forward on or off and a recorder attached or not.
func (c ffSetup) run(t testing.TB, on, record bool) ffOutcome {
	t.Helper()
	var out ffOutcome
	opts := core.Options{Node: c.node, Model: c.spec, Runtime: core.KindLiger, Liger: c.cfg, LigerSet: true, Faults: c.faults}
	if record {
		out.rec = trace.NewRecorder()
		opts.Tracer = out.rec
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := eng.Runtime().(*runtimes.Liger)
	sched := rt.Scheduler()
	liger.SetFastForward(sched, on)
	if c.watch != nil {
		liger.WatchRounds(sched, c.watch)
	}
	if c.journal {
		sched.EnableJournal(16)
	}
	rt.SetOnDone(func(cp runtimes.Completion) { out.done = append(out.done, cp) })
	clock := eng.Clock()
	for _, a := range c.arrivals {
		w := a.Workload
		clock.At(a.At, func(simclock.Time) {
			if err := rt.Submit(w); err != nil {
				t.Error(err)
			}
		})
	}
	for _, stop := range c.stops {
		clock.RunUntil(stop)
		_ = rt.Scheduler().Stats()
	}
	if c.touchEvery > 0 {
		for i := 1; clock.Step(); i++ {
			if i%c.touchEvery == 0 {
				sched.QueueLengths()
			}
		}
	}
	clock.Run()
	out.devices = eng.SimNode().Stats()
	out.stats = sched.Stats()
	out.seq = clock.Seq()
	return out
}

// sameOutcome fails t unless got, the fast-forward run, did what want,
// the simulated run, did: the same completions, device stats, counters
// but FastForwarded, sequence numbers and, when both recorded, records.
func sameOutcome(t testing.TB, got, want ffOutcome) {
	t.Helper()
	if !slices.Equal(got.done, want.done) {
		t.Errorf("completions differ:\n got %v\nwant %v", got.done, want.done)
	}
	if !slices.Equal(got.devices, want.devices) {
		t.Errorf("device stats differ:\n got %+v\nwant %+v", got.devices, want.devices)
	}
	gs, ws := got.stats, want.stats
	gs.FastForwarded, ws.FastForwarded = 0, 0
	if gs != ws {
		t.Errorf("scheduler stats differ:\n got %+v\nwant %+v", gs, ws)
	}
	if got.seq != want.seq {
		t.Errorf("engine sequence %d, want %d", got.seq, want.seq)
	}
	if got.rec == nil || want.rec == nil {
		return
	}
	g, w := got.rec, want.rec
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"spans", g.Spans(), w.Spans()},
		{"deps", g.Deps(), w.Deps()},
		{"waits", g.Waits(), w.Waits()},
		{"enqueues", g.Enqueues(), w.Enqueues()},
		{"rate samples", g.RateSamples(), w.RateSamples()},
		{"queue samples", g.QueueSamples(), w.QueueSamples()},
		{"fails", g.Fails(), w.Fails()},
		{"recovery windows", g.RecoveryWindows(), w.RecoveryWindows()},
		{"collective counts", g.Counts(), w.Counts()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differ from the simulated run", c.what)
		}
	}
}

// fig10Setup is batch-fig10's shape: OPT-30B on the 4xA100 node, batches
// of 2 with sequence lengths uniform in 16–128, arriving at the Intra-Op
// capacity for a 72-token batch.
func fig10Setup(t testing.TB, batches int, seed int64) ffSetup {
	t.Helper()
	node, spec := hw.A100Node(), model.OPT30B()
	ks, err := parallel.NewCompiler(node, nccl.Config{}).IntraOp(spec, node.NumGPUs, model.Workload{Batch: 2, SeqLen: 72, Phase: model.Context})
	if err != nil {
		t.Fatal(err)
	}
	c, m := parallel.TotalDurations(ks)
	arrivals, err := serve.Generate(serve.TraceConfig{Batches: batches, BatchSize: 2,
		RatePerSec: float64(time.Second) / float64(c+m), MinSeq: 16, MaxSeq: 128, Phase: model.Context, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ffSetup{node: node, spec: spec, cfg: liger.DefaultConfig(node.Name), arrivals: arrivals}
}

// On batch-fig10's shape the fast-forward skips most rounds and the run
// does exactly what the simulated one does. It skips 77 % of them; the
// 70 % floor needs the multi-layer periods, since one-layer periods alone
// skip 66 %.
func TestFastForwardMatchesSimulation(t *testing.T) {
	c := fig10Setup(t, 150, 1)
	got, want := c.run(t, true, false), c.run(t, false, false)
	sameOutcome(t, got, want)
	if 10*got.stats.FastForwarded <= 7*got.stats.Rounds || want.stats.FastForwarded != 0 {
		t.Errorf("fast-forwarded %d of %d rounds (off: %d); want over 70 %%, and none off",
			got.stats.FastForwarded, got.stats.Rounds, want.stats.FastForwarded)
	}
}

// A jump lands on exactly the state the simulation reaches at that round
// start: the same clock, sequence number, encoding and kernel names.
// Jumps land from one-layer periods and from periods of two or more
// layers, which a decomposed secondary batch makes.
func TestFastForwardLandsOnSimulatedState(t *testing.T) {
	c := fig10Setup(t, 100, 4)
	simulated := map[int]liger.RoundState{}
	c.watch = func(_ bool, st liger.RoundState) { simulated[st.Round] = st }
	c.run(t, false, false)
	var oneLayer, longer int
	c.watch = func(ok bool, st liger.RoundState) {
		if !ok {
			return
		}
		if st.Period == 1 {
			oneLayer++
		} else {
			longer++
		}
		want := simulated[st.Round]
		if st.Now != want.Now || st.Seq != want.Seq || !slices.Equal(st.Enc, want.Enc) ||
			!slices.Equal(st.Tails, want.Tails) || !slices.Equal(st.Layers, want.Layers) {
			t.Errorf("round %d: a jump of %d-layer periods landed at %v, seq %d, on another state than the simulation's at %v, seq %d",
				st.Round, st.Period, st.Now, st.Seq, want.Now, want.Seq)
		}
	}
	c.run(t, true, false)
	if oneLayer == 0 || longer == 0 {
		t.Errorf("%d jumps landed from one-layer periods and %d from longer ones; want both > 0", oneLayer, longer)
	}
}

// With a recorder attached the fast-forward re-emits every skipped
// period's records: the recording equals the simulated run's, record for
// record.
func TestFastForwardTraced(t *testing.T) {
	c := fig10Setup(t, 60, 2)
	got, want := c.run(t, true, true), c.run(t, false, true)
	sameOutcome(t, got, want)
	if got.stats.FastForwarded == 0 || len(got.rec.Spans()) == 0 {
		t.Errorf("fast-forwarded %d rounds, recorded %d spans; want both > 0", got.stats.FastForwarded, len(got.rec.Spans()))
	}
}

// A touch while a jump is deferred catches it up at its start, and the
// run still does exactly what the simulated one does.
func TestFastForwardCatchUp(t *testing.T) {
	c := fig10Setup(t, 60, 3)
	free := c.run(t, true, false).stats.FastForwarded
	for _, every := range []int{1, 5, 17} {
		c.touchEvery = every
		got := c.run(t, true, true)
		sameOutcome(t, got, c.run(t, false, true))
		if got.stats.FastForwarded >= free {
			t.Errorf("touching after every %d events fast-forwarded %d rounds, untouched %d; want fewer", every, got.stats.FastForwarded, free)
		}
	}
}

// The counter is deterministic: runs on one worker and on four skip the
// same rounds.
func TestFastForwardParallel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	count := func(workers int) []int {
		out, err := runner.Map(workers, len(seeds), func(i int) (int, error) {
			return fig10Setup(t, 40, seeds[i]).run(t, true, false).stats.FastForwarded, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, four := count(1), count(4)
	if !slices.Equal(one, four) || slices.Contains(one, 0) {
		t.Errorf("fast-forwarded rounds %v at 1 worker, %v at 4; want equal and all > 0", one, four)
	}
}

// The fast-forward never fires with a journal, with adaptive contention
// or switched off.
func TestFastForwardNeverFires(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*ffSetup)
		on   bool
	}{
		{"journal", func(c *ffSetup) { c.journal = true }, true},
		{"adaptive", func(c *ffSetup) { c.cfg.AdaptiveContention = true }, true},
		{"off", func(*ffSetup) {}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := fig10Setup(t, 40, 1)
			c.set(&s)
			if n := s.run(t, c.on, false).stats.FastForwarded; n != 0 {
				t.Errorf("fast-forwarded %d rounds, want 0", n)
			}
		})
	}
}

// fuzzSetup draws a run of the fuzz targets from seed: a tiny model of
// 4 + layers%28 layers on the V100 node, n arrivals close enough for
// Liger to keep several batches in flight, and, as the bits of shape
// say, a speed and a link fault window, a device failure and
// degradation-aware scheduling.
func fuzzSetup(seed int64, n, layers, shape uint8) ffSetup {
	rng := rand.New(rand.NewSource(seed))
	node := hw.V100Node()
	c := ffSetup{node: node, spec: model.Tiny().WithLayers(4 + int(layers)%28), cfg: liger.DefaultConfig(node.Name)}
	c.cfg.DegradationAware = shape&8 != 0
	at := time.Millisecond
	for range 1 + int(n)%24 {
		at += time.Duration(rng.Intn(400)) * time.Microsecond
		c.arrivals = append(c.arrivals, serve.Arrival{At: at, Workload: model.Workload{
			Batch: 1 + rng.Intn(4), SeqLen: 16 + rng.Intn(240), Phase: model.Context}})
	}
	horizon := int64(at + 2*time.Millisecond)
	window := func(kind faults.Kind) faults.Event {
		return faults.Event{Kind: kind, Device: rng.Intn(node.NumGPUs), Start: time.Millisecond + time.Duration(rng.Int63n(horizon)),
			Duration: time.Duration(1 + rng.Int63n(horizon/4)), Factor: 0.3 + 0.6*rng.Float64()}
	}
	var evs []faults.Event
	if shape&1 != 0 {
		evs = append(evs, window(faults.Slowdown))
	}
	if shape&2 != 0 {
		evs = append(evs, window(faults.LinkDegrade))
	}
	if shape&4 != 0 {
		evs = append(evs, faults.Event{Kind: faults.DeviceFail, Device: rng.Intn(node.NumGPUs),
			Start: time.Millisecond + time.Duration(rng.Int63n(horizon))})
	}
	if len(evs) > 0 {
		c.faults = &faults.Schedule{Events: evs}
	}
	return c
}

// FuzzFastForward is a differential of the period fast-forward against
// the simulation it skips: fuzzed arrivals, speed and link fault edges,
// a device failover and a RunUntil stop, with a counter read, land
// inside periods, and the run must do exactly what the simulated one
// does, with every record the same when a recorder is attached.
func FuzzFastForward(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(20), uint8(0), uint16(0), false)
	f.Add(int64(2), uint8(12), uint8(24), uint8(3), uint16(3000), true)
	f.Add(int64(3), uint8(16), uint8(16), uint8(4), uint16(1500), false)
	f.Add(int64(4), uint8(10), uint8(27), uint8(15), uint16(900), true)
	// Two batches in flight, the secondary decomposed: periods of two to
	// six layers.
	f.Add(int64(4), uint8(1), uint8(27), uint8(0), uint16(0), false)
	f.Add(int64(3), uint8(1), uint8(27), uint8(0), uint16(2000), true)
	f.Add(int64(2), uint8(1), uint8(20), uint8(8), uint16(0), true)
	f.Add(int64(5), uint8(1), uint8(27), uint8(3), uint16(2500), false)
	f.Fuzz(func(t *testing.T, seed int64, n, layers, shape uint8, stop uint16, record bool) {
		c := fuzzSetup(seed, n, layers, shape)
		if stop > 0 {
			c.stops = []time.Duration{time.Millisecond + time.Duration(stop)*time.Microsecond}
		}
		sameOutcome(t, c.run(t, true, record), c.run(t, false, record))
	})
}

// FuzzTimeShift checks the property the fast-forward rests on: the
// simulation reads time only as differences. Shifting every arrival and
// fault window by delta shifts every completion by delta and leaves
// every latency, device stat and scheduler counter as it was, with the
// fast-forward on and off. With a recorder attached, every record
// shifts by delta too: spans, deps, waits, enqueues, rate and queue
// samples, fails and recovery windows. Arrivals start at 1 ms: a launch
// at instant 0 stamps no first-launch time.
func FuzzTimeShift(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), uint8(0), uint32(12345), false)
	f.Add(int64(2), uint8(12), uint8(20), uint8(3), uint32(1000000), true)
	f.Add(int64(3), uint8(16), uint8(12), uint8(12), uint32(777), false)
	f.Add(int64(4), uint8(1), uint8(27), uint8(7), uint32(31337), true)
	f.Fuzz(func(t *testing.T, seed int64, n, layers, shape uint8, delta uint32, record bool) {
		base := fuzzSetup(seed, n, layers, shape)
		d := time.Duration(delta)
		shifted := base
		shifted.arrivals = slices.Clone(base.arrivals)
		for i := range shifted.arrivals {
			shifted.arrivals[i].At += d
		}
		if base.faults != nil {
			s := *base.faults
			s.Events = slices.Clone(s.Events)
			for i := range s.Events {
				s.Events[i].Start += d
			}
			shifted.faults = &s
		}
		for _, on := range []bool{true, false} {
			a, b := base.run(t, on, record), shifted.run(t, on, record)
			if len(a.done) != len(b.done) {
				t.Fatalf("fast-forward %v: %d completions, %d shifted", on, len(a.done), len(b.done))
			}
			for i, c := range a.done {
				c.Submitted += d
				c.Done += d
				if c != b.done[i] {
					t.Errorf("fast-forward %v: completion %+v, shifted %+v", on, a.done[i], b.done[i])
				}
			}
			if !slices.Equal(a.devices, b.devices) {
				t.Errorf("fast-forward %v: device stats %+v, shifted %+v", on, a.devices, b.devices)
			}
			if a.stats != b.stats {
				t.Errorf("fast-forward %v: scheduler stats %+v, shifted %+v", on, a.stats, b.stats)
			}
			if record {
				sameShifted(t, on, a.rec, b.rec, simclock.Time(d))
			}
		}
	})
}

// sameShifted fails t unless every record of got, the shifted run's,
// is want's shifted by d.
func sameShifted(t *testing.T, on bool, want, got *trace.Recorder, d simclock.Time) {
	t.Helper()
	spans := slices.Clone(want.Spans())
	for i := range spans {
		spans[i].Start += d
		spans[i].End += d
	}
	deps := slices.Clone(want.Deps())
	for i := range deps {
		p := &deps[i]
		p.Issued += d
		p.Delivered += d
		p.HeadAt += d
		p.Admitted += d
	}
	waits := slices.Clone(want.Waits())
	for i := range waits {
		waits[i].Start += d
		waits[i].End += d
	}
	enqueues := slices.Clone(want.Enqueues())
	for i := range enqueues {
		enqueues[i].At += d
	}
	rates := slices.Clone(want.RateSamples())
	for i := range rates {
		rates[i].At += d
	}
	queue := slices.Clone(want.QueueSamples())
	for i := range queue {
		queue[i].At += d
	}
	fails := slices.Clone(want.Fails())
	for i := range fails {
		fails[i].At += d
	}
	windows := slices.Clone(want.RecoveryWindows())
	for i := range windows {
		windows[i].Start += d
		windows[i].End += d
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"spans", got.Spans(), spans},
		{"deps", got.Deps(), deps},
		{"waits", got.Waits(), waits},
		{"enqueues", got.Enqueues(), enqueues},
		{"rate samples", got.RateSamples(), rates},
		{"queue samples", got.QueueSamples(), queue},
		{"fails", got.Fails(), fails},
		{"recovery windows", got.RecoveryWindows(), windows},
		{"collective counts", got.Counts(), want.Counts()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("fast-forward %v: %s differ from the unshifted run's, shifted", on, c.what)
		}
	}
}
