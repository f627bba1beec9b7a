package runtimes_test

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"liger/internal/cluster"
	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// newLiger builds a Liger runtime over a fresh A100 node.
func newLiger(t testing.TB, spec model.Spec, cfg liger.Config) (*simclock.Engine, *gpusim.Node, *runtimes.Liger) {
	t.Helper()
	eng := simclock.New()
	node := gpusim.MustNew(eng, hw.A100Node())
	rt, err := runtimes.NewLiger(node, parallel.NewCompiler(hw.A100Node(), nccl.Config{}), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, node, rt
}

// iteration is one solo iteration's duration and the work it added to
// the node's and the scheduler's counters.
type iteration struct {
	dur   time.Duration
	dev   []gpusim.DeviceStats
	sched liger.Stats
}

// firstKernels maps each submit instant to the dependency record of the
// first kernel launched at it.
func firstKernels(rec *trace.Recorder) map[simclock.Time]trace.Dep {
	first := map[simclock.Time]trace.Dep{}
	for _, d := range rec.Deps() {
		if old, ok := first[d.Issued]; !ok || d.ID < old.ID {
			first[d.Issued] = d
		}
	}
	return first
}

// chain runs n iterations of w on a fresh node with replay off, the
// first submitted at start and each later one gap after the completion
// of the one before (gap 0: from inside the completion). It returns each
// iteration's record; tracer, when set, records the run.
func chain(t *testing.T, start, gap simclock.Time, w model.Workload, n int, tracer *trace.Recorder) []iteration {
	t.Helper()
	eng, node, rt := newLiger(t, model.OPT30B(), liger.DefaultConfig("a100"))
	runtimes.SetReplay(rt, false)
	if tracer != nil {
		node.SetTracer(tracer)
	}
	var out []iteration
	var dev0 []gpusim.DeviceStats
	var sched0 liger.Stats
	submit := func(simclock.Time) {
		dev0, sched0 = node.Stats(), rt.Scheduler().Stats()
		if err := rt.Submit(w); err != nil {
			t.Fatal(err)
		}
	}
	rt.SetOnDone(func(c runtimes.Completion) {
		it := iteration{dur: c.Latency(), sched: rt.Scheduler().Stats().Since(sched0)}
		for i, d := range node.Stats() {
			it.dev = append(it.dev, gpusim.DeviceStats{ComputeBusy: d.ComputeBusy - dev0[i].ComputeBusy,
				CommBusy: d.CommBusy - dev0[i].CommBusy, OverlapBusy: d.OverlapBusy - dev0[i].OverlapBusy,
				KernelsRun: d.KernelsRun - dev0[i].KernelsRun})
		}
		out = append(out, it)
		if len(out) == n {
			return
		}
		if gap == 0 {
			submit(c.Done)
			return
		}
		eng.After(gap, submit)
	})
	eng.At(start, submit)
	eng.Run()
	if len(out) != n {
		t.Fatalf("%d of %d iterations completed", len(out), n)
	}
	return out
}

// TestSoloIterationIgnoresStartInstant is the premise of iteration
// replay: a warm solo iteration on a drained node takes the same time
// and adds the same DeviceStats and scheduler counters at every start
// instant, from zero through odd nanosecond offsets to beyond 1e12 ns.
// The cold first iteration of a runtime is one IssueGap shorter: its
// first round waits on no earlier round, so no wait command is issued
// ahead of its first kernel on the launch connection.
func TestSoloIterationIgnoresStartInstant(t *testing.T) {
	shapes := []model.Workload{
		{Batch: 8, CtxLen: 40, Phase: model.Decode},
		{Batch: 1, SeqLen: 39, Phase: model.Context},
	}
	starts := []simclock.Time{0, 1, 7, 999_999_937, 1_000_000_000_003}
	gaps := []simclock.Time{0, 1, 333, 1_000_000_000_007}
	gap := hw.A100Node().Host.IssueGap
	for _, w := range shapes {
		t.Run(fmt.Sprintf("%v", w), func(t *testing.T) {
			var warm *iteration
			for _, start := range starts {
				for _, g := range gaps {
					its := chain(t, start, g, w, 3, nil)
					if warm == nil {
						warm = &its[1]
					}
					for i, it := range its {
						want := *warm
						if i == 0 {
							want.dur -= gap
						}
						if it.dur != want.dur || !slices.Equal(it.dev, want.dev) || it.sched != want.sched {
							t.Fatalf("start %d gap %d iteration %d: %v, %v, %+v; want %v, %v, %+v",
								start, g, i, it.dur, it.dev, it.sched, want.dur, want.dev, want.sched)
						}
					}
				}
			}
			// The cause of the cold difference: the warm iteration's first
			// kernel is delivered one IssueGap later, behind the wait on the
			// previous round's end event.
			rec := trace.NewRecorder()
			its := chain(t, 5, 0, w, 2, rec)
			first := firstKernels(rec)
			cold, warmDep := first[5], first[5+its[0].dur]
			if cold.Serialized != 0 || warmDep.Serialized != gap {
				t.Fatalf("first kernel serialized %v cold and %v warm, want 0 and %v", cold.Serialized, warmDep.Serialized, gap)
			}
		})
	}
}

// TestCPUGPUNeverReplays: CPU-GPU sync submits each chained iteration
// with a round still pending, so the scheduler is never settled at a
// submit and nothing is replayed or synthesized.
func TestCPUGPUNeverReplays(t *testing.T) {
	shapes := []model.Workload{
		{Batch: 8, CtxLen: 40, Phase: model.Decode},
		{Batch: 1, SeqLen: 39, Phase: model.Context},
	}
	cfg := liger.DefaultConfig("a100")
	cfg.Sync = liger.CPUGPU
	eng, _, rt := rig{hw.A100Node(), model.OPT30B(), cfg, folded}.build(t)
	n := 0
	rt.SetOnDone(func(runtimes.Completion) {
		if n++; n < 6 {
			rt.Submit(shapes[n%2])
		}
	})
	eng.At(0, func(simclock.Time) { rt.Submit(shapes[0]) })
	eng.Run()
	if synth := runtimes.Store(rt).Stats().Synthesized; n != 6 || runtimes.Replays(rt) != 0 || synth != 0 {
		t.Fatalf("%d iterations, %d replayed, %d records synthesized; want 6, 0, 0", n, runtimes.Replays(rt), synth)
	}
}

// continuousRun is a continuous-batching scenario on the tiny model.
type continuousRun struct {
	pool        int
	at          []simclock.Time
	prompt, gen []int
	// intrude makes every third completion callback schedule a counter
	// reading into the next iteration's window after it submits;
	// faults opens speed and link fault windows on the devices.
	intrude, faults bool
	// touches are replay windows of an earlier run of the scenario, each
	// touched by a foreign event queued before the run (see touch); stop,
	// when positive, ends a first RunUntil there and reads the node.
	touches []window
	stop    simclock.Time
}

// window is the span of one iteration, from its submit to its
// completion.
type window struct{ submit, done simclock.Time }

// outcome is everything a continuous run reports.
type outcome struct {
	done          []runtimes.Completion
	first, finish []simclock.Time
	counters      [5]int
	dev           []gpusim.DeviceStats
	sched         liger.Stats
	readings      []string
	end           simclock.Time
	// replays counts replayed iterations; replayed holds their windows.
	// catchUps counts the replays caught up and simulated after all.
	replays, catchUps int
	replayed          []window
}

// Mode bits of a fuzz input.
const (
	modeIntrude = 1 << iota
	modeFaults
	// modeArrival moves the last arrival onto a replayed completion
	// instant.
	modeArrival
	// modeTouch touches the node inside replay windows.
	modeTouch
	// modeStop stops a first RunUntil inside a replay window.
	modeStop
)

// newContinuousRun decodes fuzz input into a scenario: a pool cap,
// arrival gaps of 25 µs units, prompt and generation lengths in pairs,
// and mode bits (modeIntrude, modeFaults).
func newContinuousRun(pool uint8, gaps, lens []byte, mode uint8) continuousRun {
	sc := continuousRun{pool: 1 + int(pool%8), intrude: mode&modeIntrude != 0, faults: mode&modeFaults != 0}
	n := min(len(lens)/2, 16)
	var at simclock.Time
	for i := range n {
		if len(gaps) > 0 {
			at += simclock.Time(gaps[i%len(gaps)]) * 25 * simclock.Time(time.Microsecond)
		}
		sc.at = append(sc.at, at)
		sc.prompt = append(sc.prompt, 1+int(lens[2*i]%64))
		sc.gen = append(sc.gen, 1+int(lens[2*i+1]%32))
	}
	return sc
}

// run simulates the scenario with replay on or off.
func (sc continuousRun) run(t *testing.T, replay bool) outcome {
	t.Helper()
	spec := model.Tiny()
	cfg := liger.DefaultConfig("a100")
	cfg.DegradationAware = true
	eng, node, rt := newLiger(t, spec, cfg)
	runtimes.SetReplay(rt, replay)
	kv, err := kvcache.NewPaged(hw.A100Node(), spec, sc.pool, 64+32, kvcache.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	o.first = make([]simclock.Time, len(sc.at))
	o.finish = make([]simclock.Time, len(sc.at))
	cb, err := serve.NewContinuousBatcher(rt, kv, sc.pool, serve.ContinuousHooks{
		FirstToken: func(id int, now simclock.Time) { o.first[id] = now },
		Finished:   func(id int, now simclock.Time) { o.finish[id] = now },
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func(now simclock.Time) {
		o.readings = append(o.readings, fmt.Sprintf("%d %v %+v", now, node.Stats(), rt.Scheduler().Stats()))
	}
	replays := 0
	rt.SetOnDone(func(c runtimes.Completion) {
		if n := runtimes.Replays(rt); n > replays {
			replays = n
			o.replayed = append(o.replayed, window{c.Submitted, c.Done})
		}
		o.done = append(o.done, c)
		cb.OnDone(c)
		if sc.intrude && len(o.done)%3 == 0 {
			eng.After(simclock.Time(len(o.done)%7)*simclock.Time(time.Microsecond)+500, read)
		}
	})
	if sc.faults || len(sc.touches) > 0 {
		node.KeepUnfolded()
	}
	for i, w := range sc.touches {
		o.touch(i, w, eng, node, rt)
	}
	if sc.faults {
		for i, at := range sc.at {
			dev := node.Device(i % node.NumDevices())
			// Windows from 60 µs, inside one iteration, to 4 ms, across
			// several of them.
			long := simclock.Time(i%2) * 4 * simclock.Time(time.Millisecond)
			switch i % 3 {
			case 0:
				eng.At(at+30*simclock.Time(time.Microsecond), func(simclock.Time) { dev.SetSpeed(0.6) })
				eng.At(at+90*simclock.Time(time.Microsecond)+long, func(simclock.Time) { dev.SetSpeed(1) })
			case 1:
				eng.At(at+10*simclock.Time(time.Microsecond), func(simclock.Time) { dev.SetLinkFactor(0.5) })
				eng.At(at+200*simclock.Time(time.Microsecond)+long, func(simclock.Time) { dev.SetLinkFactor(1) })
			}
		}
	}
	for i, at := range sc.at {
		s := serve.GenSeq{ID: i, Prompt: sc.prompt[i], Gen: sc.gen[i]}
		eng.At(at, func(now simclock.Time) { cb.Add(s, now) })
	}
	if sc.stop > 0 {
		eng.RunUntil(sc.stop)
		read(eng.Now())
	}
	eng.Run()
	if err := cb.Err(); err != nil {
		t.Fatal(err)
	}
	if err := serve.AuditKV(kv); err != nil {
		t.Fatal(err)
	}
	o.counters = [5]int{cb.Iterations, cb.PoolSum, cb.PrefillBatches, cb.Preemptions, cb.RecomputedTokens}
	o.dev, o.sched, o.end = node.Stats(), rt.Scheduler().Stats(), eng.Now()
	o.replays, o.catchUps = runtimes.Replays(rt), runtimes.CatchUps(rt)
	return o
}

// touch queues the i-th touch of window w, a foreign event at a
// quarter, a half or three quarters of the way through it that, by i:
// reads every device's DeviceStats; reads the scheduler's Stats; reads
// the engine's queue; schedules a reading at exactly the completion
// instant; or slows a device for 50 µs. Every reading lands in
// o.readings.
func (o *outcome) touch(i int, w window, eng *simclock.Engine, node *gpusim.Node, rt *runtimes.Liger) {
	log := func(what string, v any) {
		o.readings = append(o.readings, fmt.Sprintf("%d touch %d %s %v", eng.Now(), i, what, v))
	}
	at := w.submit + (w.done-w.submit)*simclock.Time(1+i%3)/4
	eng.At(at, func(simclock.Time) {
		switch i % 5 {
		case 0:
			log("devices", node.Stats())
		case 1:
			log("scheduler", rt.Scheduler().Stats())
		case 2:
			next, ok := eng.NextEventAt()
			log("queue", fmt.Sprint(next, ok, eng.Pending()))
		case 3:
			eng.At(w.done, func(simclock.Time) { log("at the completion", node.Stats()) })
		case 4:
			dev := node.Device(i % node.NumDevices())
			dev.SetSpeed(0.7)
			eng.After(50*simclock.Time(time.Microsecond), func(simclock.Time) { dev.SetSpeed(1) })
		}
	})
}

// diff reports the first difference between two outcomes, or "".
func (o outcome) diff(p outcome) string {
	switch {
	case !slices.Equal(o.done, p.done):
		return fmt.Sprintf("completions\n%v\n%v", o.done, p.done)
	case !slices.Equal(o.first, p.first):
		return fmt.Sprintf("first tokens\n%v\n%v", o.first, p.first)
	case !slices.Equal(o.finish, p.finish):
		return fmt.Sprintf("finish times\n%v\n%v", o.finish, p.finish)
	case o.counters != p.counters:
		return fmt.Sprintf("batcher counters %v, %v", o.counters, p.counters)
	case !slices.Equal(o.dev, p.dev):
		return fmt.Sprintf("device stats\n%v\n%v", o.dev, p.dev)
	case o.sched != p.sched:
		return fmt.Sprintf("scheduler stats\n%+v\n%+v", o.sched, p.sched)
	case !slices.Equal(o.readings, p.readings):
		return fmt.Sprintf("readings in the window\n%v\n%v", o.readings, p.readings)
	case o.end != p.end:
		return fmt.Sprintf("end %v, %v", o.end, p.end)
	}
	return ""
}

// replayDiffers checks the scenario with replay on against replay off,
// returning the replaying run.
func replayDiffers(t *testing.T, sc continuousRun) outcome {
	t.Helper()
	off, on := sc.run(t, false), sc.run(t, true)
	if off.replays != 0 {
		t.Fatalf("%d replays with replay off", off.replays)
	}
	if d := on.diff(off); d != "" {
		t.Fatalf("replay on differs from replay off: %s", d)
	}
	return on
}

// seedLens seeds the sequence lengths, in prompt and generation pairs.
const seedLens = "a seed of prompt and generation lengths, in pairs."

// checkContinuous runs the scenario the fuzz input decodes to with
// replay on and off and fails on any difference. The windows the
// modes aim at are those an earlier replaying run replayed: with
// modeArrival the last arrival first moves onto the completion instant
// of one the run replays without it; with modeTouch a foreign event
// touches every other one (continuousRun.touches); with modeStop the run
// first stops halfway through one of them. It returns the replaying
// run, or nothing for an input with no sequence.
func checkContinuous(t *testing.T, pool uint8, gaps, lens []byte, mode uint8) outcome {
	sc := newContinuousRun(pool, gaps, lens, mode)
	if len(sc.at) == 0 {
		return outcome{}
	}
	if mode&modeArrival != 0 && len(sc.at) > 1 {
		last := len(sc.at) - 1
		head := sc
		head.at, head.prompt, head.gen = sc.at[:last], sc.prompt[:last], sc.gen[:last]
		if ws := head.run(t, true).replayed; len(ws) > 0 {
			sc.at = append(slices.Clone(sc.at[:last]), ws[int(pool)%len(ws)].done)
		}
	}
	if mode&(modeTouch|modeStop) != 0 {
		if ws := sc.run(t, true).replayed; len(ws) > 0 {
			for i := 0; i < len(ws) && mode&modeTouch != 0; i += 2 {
				sc.touches = append(sc.touches, ws[i])
			}
			if w := ws[int(pool)%len(ws)]; mode&modeStop != 0 {
				sc.stop = (w.submit + w.done) / 2
			}
		}
	}
	return replayDiffers(t, sc)
}

// FuzzContinuousReplay checks iteration replay against the simulation
// it stands for: continuous batching over random pool caps, arrival
// gaps and sequence lengths must report every completion, first-token
// and finish time, batcher counter, DeviceStats and scheduler counter
// identically with replay on and off (checkContinuous).
func FuzzContinuousReplay(f *testing.F) {
	for _, in := range continuousSeeds {
		f.Add(in.pool, in.gaps, []byte(seedLens), in.mode)
	}
	f.Add(uint8(0), []byte{}, []byte(seedLens[:8]), uint8(31))
	f.Fuzz(func(t *testing.T, pool uint8, gaps, lens []byte, mode uint8) {
		checkContinuous(t, pool, gaps, lens, mode)
	})
}

// continuousSeeds are the fuzz seeds that must replay; arrivals marks
// those whose replayed windows must hold an arrival.
var continuousSeeds = []struct {
	name     string
	pool     uint8
	gaps     []byte
	mode     uint8
	arrivals bool
}{
	{"plain", 3, []byte{2, 0, 9, 1, 40}, 0, false},
	{"arrival at a replayed completion instant", 7, []byte{30, 4}, modeArrival, false},
	{"readings scheduled into replay windows", 2, []byte{1, 3, 0}, modeIntrude, false},
	{"fault schedule", 2, []byte{6, 2, 90}, modeFaults, false},
	{"arrivals inside replay windows", 3, []byte{20, 30, 25}, 0, true},
	{"touch inside a replay window", 4, []byte{3, 1, 8}, modeTouch, false},
	{"run stopped inside a replay window", 5, []byte{2, 5, 1}, modeStop | modeTouch, false},
}

// TestContinuousReplayEngages pins that the differential above compares
// something: each seed scenario still replays iterations, the seeds
// marked arrivals replay iterations an arrival lands inside, those that
// touch the node inside windows catch replays up, and those with nothing
// but arrivals never do.
func TestContinuousReplayEngages(t *testing.T) {
	for _, in := range continuousSeeds {
		on := checkContinuous(t, in.pool, in.gaps, []byte(seedLens), in.mode)
		switch {
		case on.replays == 0:
			t.Fatalf("%s: no iteration replayed", in.name)
		case in.mode&(modeIntrude|modeTouch) != 0 && on.catchUps == 0:
			t.Fatalf("%s: no replay caught up", in.name)
		case in.mode == 0 && on.catchUps != 0:
			t.Fatalf("%s: %d replays caught up, with nothing to touch them", in.name, on.catchUps)
		}
		if !in.arrivals {
			continue
		}
		arrivals := newContinuousRun(in.pool, in.gaps, []byte(seedLens), in.mode).at
		if !slices.ContainsFunc(on.replayed, func(w window) bool {
			return slices.ContainsFunc(arrivals, func(at simclock.Time) bool { return w.submit < at && at < w.done })
		}) {
			t.Fatalf("%s: no arrival inside a replayed window", in.name)
		}
	}
}

// TestReplayFollowsTheRules perturbs a chain of solo iterations, which
// replay, in every way the rules guard against, at fixed iterations:
//
//   - a fault window opens and closes inside the first replayed
//     iteration, and later a callback slows a device after it submits;
//   - a second submit follows the chained one, including right after a
//     new shape's record was synthesized;
//   - a callback reads the scheduler after it submits, or schedules
//     readings of the node into the window, at the instants the first
//     commands and the first kernel after the leading wait arrive;
//   - the run stops eight times with RunUntil to read the node;
//   - a callback fails a device after it submits (a failover), after
//     which new shapes are probed on the survivors;
//   - a tracer is attached for a few iterations;
//   - a collective watchdog short enough to abort every collective is
//     set, and a new shape runs under it.
//
// Replay on and off must complete the same batches at the same instants
// and read the same counters, running kernels, memory and spans.
func TestReplayFollowsTheRules(t *testing.T) {
	host := hw.A100Node().Host
	offsets := []simclock.Time{simclock.Time(time.Microsecond), host.LaunchLatency, host.LaunchLatency + host.IssueGap}
	ms := simclock.Time(time.Millisecond)
	run := func(replay bool) (outcome, string) {
		eng, node, rt := newLiger(t, model.Tiny(), liger.DefaultConfig("a100"))
		runtimes.SetReplay(rt, replay)
		node.KeepUnfolded()
		var o outcome
		var reads string
		read := func(now simclock.Time) {
			reads += fmt.Sprintf("%d %v", now, node.Stats())
			for d := range node.NumDevices() {
				reads += fmt.Sprintf(" %d", node.Device(d).RunningKernels())
			}
			reads += "\n"
		}
		submit := func(w model.Workload) {
			if err := rt.Submit(w); err != nil {
				t.Fatal(err)
			}
		}
		decode := func(ctx int) model.Workload { return model.Workload{Batch: 4, CtxLen: ctx, Phase: model.Decode} }
		rec := trace.NewRecorder()
		iter := 0
		rt.SetOnDone(func(c runtimes.Completion) {
			o.done = append(o.done, c)
			if c.Workload.Phase != model.Decode {
				return
			}
			if iter++; iter > 90 {
				return
			}
			switch {
			case iter > 75:
				submit(decode(26))
				return
			case iter%8 == 4:
				submit(decode(25))
			default:
				submit(decode(24))
			}
			switch {
			case iter == 1:
				slow := node.Device(1)
				eng.After(100*simclock.Time(time.Microsecond), func(simclock.Time) { slow.SetSpeed(0.5) })
				eng.After(200*simclock.Time(time.Microsecond), func(simclock.Time) { slow.SetSpeed(1) })
			case iter == 50:
				node.FailDevice(3)
			case iter == 70:
				node.SetCollectiveTimeout(1)
			case iter == 30:
				node.SetTracer(rec)
			case iter == 34:
				node.SetTracer(nil)
			case iter%8 == 2 || iter == 4:
				submit(model.Workload{Batch: 1, SeqLen: 1 + iter%8, Phase: model.Context})
			case iter%8 == 5:
				reads += fmt.Sprintf("%+v\n", rt.Scheduler().Stats())
			case iter%8 == 6:
				slow := node.Device(0)
				slow.SetSpeed(0.7)
				eng.After(ms, func(simclock.Time) { slow.SetSpeed(1) })
			case iter%8 == 7:
				for _, d := range offsets {
					eng.After(d, read)
				}
			}
		})
		eng.At(0, func(simclock.Time) { submit(decode(24)) })
		for stop := range simclock.Time(8) {
			eng.RunUntil((stop + 1) * 1_234_567)
			read(eng.Now())
		}
		eng.Run()
		reads += fmt.Sprintf("memory %d spans %v deps %v\n", node.Device(0).MemUsed(), rec.Spans(), rec.Deps())
		o.dev, o.sched, o.end, o.replays = node.Stats(), rt.Scheduler().Stats(), eng.Now(), runtimes.Replays(rt)
		return o, reads
	}
	off, offReads := run(false)
	on, onReads := run(true)
	if d := on.diff(off); d != "" {
		t.Fatalf("replay on differs from replay off: %s", d)
	}
	if onReads != offReads {
		t.Fatalf("readings differ:\n%s\n%s", onReads, offReads)
	}
	if on.replays == 0 {
		t.Fatal("no iteration replayed")
	}
	if !slices.ContainsFunc(on.done, func(c runtimes.Completion) bool { return c.Failed }) {
		t.Fatal("no batch failed")
	}
}

// fleetOutcome is what a fleet run of the shard replay differential
// reports: the serving result with every request's outcome, the router's
// decisions and each node's device counters, the replay and catch-up
// counts summed over the nodes, each node's replays, the counters of the
// record store the nodes share and the nodes' runtimes.
type fleetOutcome struct {
	result                  serve.Result
	res, decisions, devices string
	replays, catchUps       int
	replaysBy               []int
	records                 runtimes.RecordStats
	rts                     []*runtimes.Liger
}

// fleetRig is the fleet a shard replay seed serves on: replicas of the
// tiny model plus one spare, node 0 failing whole at fail when positive,
// the device-level faults events, and the collective watchdogs timeouts
// sets on some nodes.
type fleetRig struct {
	replicas int
	fail     simclock.Time
	events   []faults.Event
	timeouts map[int]time.Duration
}

// runShardFleet serves arrivals on the fleet g with replay on or off on
// every node.
func runShardFleet(t *testing.T, arrivals []serve.Arrival, g fleetRig, replay bool, workers int) fleetOutcome {
	t.Helper()
	cfg := cluster.Config{
		Cluster: hw.Cluster{Name: "replay-fleet", Node: hw.V100Node(), Nodes: g.replicas, Spares: 1, Network: hw.IBNetwork()},
		Model:   model.Tiny(), Runtime: core.KindLiger, Workers: workers,
	}
	events := slices.Clone(g.events)
	if g.fail > 0 {
		events = append(events, faults.Event{Kind: faults.NodeFail, Node: 0, Start: time.Duration(g.fail)})
	}
	if len(events) > 0 {
		cfg.Faults = &faults.Schedule{Events: events}
	}
	f, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var o fleetOutcome
	for i, rt := range f.Runtimes() {
		o.rts = append(o.rts, rt.(*runtimes.Liger))
		runtimes.SetReplay(o.rts[i], replay)
		if d, ok := g.timeouts[i]; ok {
			runtimes.Node(o.rts[i]).SetCollectiveTimeout(d)
		}
	}
	rec := trace.NewRecorder()
	pol := serve.Policy{Deadline: time.Second, MaxRetries: 3, Backoff: 50 * time.Microsecond, BackoffCap: time.Millisecond}
	res, err := serve.RunFleet(f, arrivals, pol, serve.RouterPolicy{Seed: 1, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	o.result, o.res, o.decisions = res, fmt.Sprintf("%s\n%+v", js, res.PerRequest), fmt.Sprint(rec.RouterDecisions())
	for _, ns := range f.NodeStats() {
		o.devices += fmt.Sprintf("%+v\n", ns.Devices)
	}
	for _, rt := range o.rts {
		o.replaysBy = append(o.replaysBy, runtimes.Replays(rt))
		o.replays += runtimes.Replays(rt)
		o.catchUps += runtimes.CatchUps(rt)
	}
	o.records = f.RecordStats()
	return o
}

// TestShardReplayMatchesSimulation: on the shards of a sharded executor
// a Liger node replays solo batches, whether a posted dispatch submits
// them (a Fleet replica) or its own completion chains them, and the
// run matches the same run with replay off on every node, at 1 and 4
// workers. The fleet seeds place a dispatch inside a replayed window, a
// dispatch at exactly the replayed completion instant, and a whole-node
// failure inside a window; the chained seed ends a first RunUntil inside
// a window. The nodes of a fleet share one record store, and the fleet
// seeds that check it have the spare replay a record only the dead
// replica synthesized, two replicas synthesize an unseen shape in the
// same window, at 4 workers concurrently, and replicas that lost
// different devices or run under their own collective watchdog keep
// records of their own world.
func TestShardReplayMatchesSimulation(t *testing.T) {
	w := model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context}
	at := func(d simclock.Time) serve.Arrival { return serve.Arrival{At: d, Workload: w} }
	// A solo warm batch of w takes d: the second of two well-spaced
	// requests is one, less the dispatch and the notice.
	probe := runShardFleet(t, []serve.Arrival{at(0), at(simclock.Time(time.Millisecond))}, fleetRig{replicas: 1}, false, 1)
	r := probe.result.PerRequest[1]
	lat := simclock.Time(hw.IBNetwork().Latency)
	d := simclock.Time(r.Done-r.Arrival) - 2*lat
	// Request 0 warms the node; request 1 replays w from a synthesized
	// record, request 2 in the window [2g+latency, 2g+latency+d], and
	// the next ones after it do too.
	g := 4 * d
	base := []serve.Arrival{at(0), at(g), at(2 * g)}
	tail := []serve.Arrival{at(4 * g), at(5 * g), at(6 * g)}
	small := model.Workload{Batch: 1, SeqLen: 16, Phase: model.Context}
	// oneEach checks that the store synthesized each of its records once
	// and holds want of them.
	oneEach := func(want int) func(*testing.T, fleetOutcome) {
		return func(t *testing.T, o fleetOutcome) {
			if st := o.records; st.Held != want || st.Synthesized != want || st.Marked != 0 || st.Fallbacks != 0 {
				t.Fatalf("the store counts %+v, want %d records synthesized once each", st, want)
			}
		}
	}
	// ownRecords checks that replicas 0 and 1 hold a record of w each, in
	// worlds of their own: different records, each filed under its node's
	// watchdog.
	ownRecords := func(t *testing.T, o fleetOutcome) {
		r0, k0 := runtimes.Record(o.rts[0], w)
		r1, k1 := runtimes.Record(o.rts[1], w)
		switch {
		case r0 == nil || r1 == nil:
			t.Fatalf("records %v and %v", r0, r1)
		case r0 == r1:
			t.Fatal("two worlds share a record")
		case k0.Timeout != runtimes.Node(o.rts[0]).CollectiveTimeout() || k1.Timeout != runtimes.Node(o.rts[1]).CollectiveTimeout():
			t.Fatalf("records under watchdogs %v and %v", k0.Timeout, k1.Timeout)
		}
	}
	// catchesUp marks the seeds that must catch a replay up; atDone the
	// one whose request 3 lands at request 2's replayed completion.
	seeds := []struct {
		name              string
		extra             []serve.Arrival
		rig               fleetRig
		catchesUp, atDone bool
		check             func(*testing.T, fleetOutcome)
	}{
		{name: "dispatch inside a window", rig: fleetRig{replicas: 1}, catchesUp: true,
			extra: []serve.Arrival{{At: 2*g + d/2, Workload: small}}},
		{name: "dispatch at the replayed completion", rig: fleetRig{replicas: 1}, catchesUp: true, atDone: true,
			extra: []serve.Arrival{{At: 2*g + d, Workload: small}}},
		{name: "node failure inside a window", rig: fleetRig{replicas: 1, fail: 2*g + d/2}},
		{name: "two replicas and a node failure", rig: fleetRig{replicas: 2, fail: 5*g + d/3},
			extra: []serve.Arrival{at(2*g + d/3), at(3 * g), at(3*g + d)}},
		// Replica 0 synthesizes w and dies between two requests; the spare
		// takes its place, some 13g later, and replays w from replica 0's
		// record.
		{name: "spare replays the dead replica's record", rig: fleetRig{replicas: 1, fail: 3 * g},
			extra: []serve.Arrival{at(16 * g), at(17 * g), at(18 * g)},
			check: func(t *testing.T, o fleetOutcome) {
				oneEach(1)(t, o)
				if o.replaysBy[1] == 0 {
					t.Fatal("the spare replayed nothing")
				}
			}},
		// Both replicas are warm when two requests of an unseen shape
		// reach them in the same window.
		{name: "two replicas synthesize one shape", rig: fleetRig{replicas: 2},
			extra: []serve.Arrival{at(0), at(g), {At: 3 * g, Workload: small}, {At: 3 * g, Workload: small}},
			check: func(t *testing.T, o fleetOutcome) {
				oneEach(2)(t, o)
				if o.replaysBy[0] == 0 || o.replaysBy[1] == 0 {
					t.Fatalf("replays by node: %v", o.replaysBy)
				}
			}},
		// Replicas 0 and 1 lose different devices, so their survivors
		// share a plan but not a world. Their reconfigurations end by 8g;
		// the router breaks a tie between idle replicas towards replica 0,
		// so the requests come in pairs to reach both.
		{name: "replicas that lost different devices", rig: fleetRig{replicas: 2, events: []faults.Event{
			{Kind: faults.DeviceFail, Node: 0, Device: 1, Start: time.Duration(g / 2)},
			{Kind: faults.DeviceFail, Node: 1, Device: 3, Start: time.Duration(g / 2)}}},
			extra: []serve.Arrival{at(10 * g), at(10 * g), at(12 * g), at(12 * g), at(14 * g), at(14 * g)}, check: ownRecords},
		{name: "a replica under its own watchdog", rig: fleetRig{replicas: 2, timeouts: map[int]time.Duration{1: time.Second}},
			extra: []serve.Arrival{at(0), at(g), at(3 * g), at(3 * g)}, check: ownRecords},
	}
	for _, sd := range seeds {
		t.Run(sd.name, func(t *testing.T) {
			arrivals := slices.Concat(base, sd.extra, tail)
			slices.SortStableFunc(arrivals, func(a, b serve.Arrival) int { return cmp.Compare(a.At, b.At) })
			off := runShardFleet(t, arrivals, sd.rig, false, 1)
			for _, workers := range []int{1, 4} {
				on := runShardFleet(t, arrivals, sd.rig, true, workers)
				switch {
				case on.res != off.res:
					t.Fatalf("%d workers: results differ\n%s\n%s", workers, on.res, off.res)
				case on.decisions != off.decisions:
					t.Fatalf("%d workers: router decisions differ\n%s\n%s", workers, on.decisions, off.decisions)
				case on.devices != off.devices:
					t.Fatalf("%d workers: device counters differ\n%s\n%s", workers, on.devices, off.devices)
				case on.replays == 0:
					t.Fatalf("%d workers: nothing replayed", workers)
				case sd.catchesUp && on.catchUps == 0:
					t.Fatalf("%d workers: no replay caught up", workers)
				}
				if sd.check != nil {
					sd.check(t, on)
				}
				if sd.atDone {
					rs := on.result.PerRequest
					if done, dispatch := simclock.Time(rs[2].Done)-lat, simclock.Time(rs[3].Arrival)+lat; done != dispatch {
						t.Fatalf("request 3 lands at %v, request 2 completes at %v", dispatch, done)
					}
				}
			}
		})
	}
	t.Run("deadline inside a chained window", func(t *testing.T) {
		// Iteration 12 of the chain replays from the completion of
		// iteration 11 unless the run stops halfway through it.
		off := runShardChain(t, 0, false, 1)
		stop := (off.done[11].Done + off.done[12].Done) / 2
		off = runShardChain(t, stop, false, 1)
		for _, workers := range []int{1, 4} {
			on := runShardChain(t, stop, true, workers)
			if diff := on.diff(off); diff != "" {
				t.Fatalf("%d workers: replay on differs from replay off: %s", workers, diff)
			}
			if on.replays == 0 {
				t.Fatalf("%d workers: nothing replayed", workers)
			}
		}
	})
}

// runShardChain runs a chain of iterations on a node on shard 0 of a
// two-shard executor, while shard 1 posts submits into it under a
// lookahead longer than an iteration, first to a RunUntil at stop when
// positive and then to the end.
func runShardChain(t *testing.T, stop simclock.Time, replay bool, workers int) outcome {
	t.Helper()
	ex := simclock.NewSharded(2, 5*simclock.Time(time.Millisecond), workers)
	defer ex.Close()
	eng := ex.Shard(0)
	node := gpusim.MustNew(eng, hw.A100Node())
	rt, err := runtimes.NewLiger(node, parallel.NewCompiler(hw.A100Node(), nccl.Config{}), model.Tiny(), liger.DefaultConfig("a100"))
	if err != nil {
		t.Fatal(err)
	}
	runtimes.SetReplay(rt, replay)
	w := model.Workload{Batch: 4, CtxLen: 24, Phase: model.Decode}
	submit := func(w model.Workload) {
		if err := rt.Submit(w); err != nil {
			t.Fatal(err)
		}
	}
	var o outcome
	rt.SetOnDone(func(c runtimes.Completion) {
		if o.done = append(o.done, c); c.Workload == w && len(o.done) < 60 {
			submit(w)
		}
	})
	eng.At(0, func(simclock.Time) { submit(w) })
	other := ex.Shard(1)
	for i := range simclock.Time(8) {
		other.At(2*simclock.Time(time.Millisecond)+i*1_777_777, func(now simclock.Time) {
			ex.Post(1, 0, now+ex.Lookahead(), func(simclock.Time) {
				submit(model.Workload{Batch: 1, SeqLen: 4, Phase: model.Context})
			})
		})
	}
	if stop > 0 {
		ex.RunUntil(stop)
		o.readings = append(o.readings, fmt.Sprint(node.Stats()))
	}
	ex.Run()
	o.dev, o.sched, o.end, o.replays = node.Stats(), rt.Scheduler().Stats(), eng.Now(), runtimes.Replays(rt)
	return o
}

// touchPoint is where TestCatchUpAtEveryPosition touches a window: at
// instant at, before the node's events there (an event queued before
// the run) or after those scheduled before at (an event that one
// schedules at at), or, with submit, from the completion callback right
// after the submit.
type touchPoint struct {
	at            simclock.Time
	after, submit bool
}

// touchedChain runs three chained iterations of w on an unfolded node,
// the third completing at d in a plain run, and touches the third one's
// window at p in the way kind picks. It returns every completion, the
// foreign events' firing log, the final DeviceStats, scheduler counters
// and kernel and collective ids, and the runtime's replay and catch-up
// counts.
func touchedChain(t *testing.T, w model.Workload, d simclock.Time, p touchPoint, kind int, replay bool) (outcome, string) {
	eng, node, rt := newLiger(t, model.Tiny(), liger.DefaultConfig("a100"))
	runtimes.SetReplay(rt, replay)
	node.KeepUnfolded()
	var o outcome
	var log string
	touch := func(now simclock.Time) {
		log += fmt.Sprintf("%d: ", now)
		switch kind % 6 {
		case 0:
			log += fmt.Sprint(node.Stats())
		case 1:
			log += fmt.Sprintf("%+v", rt.Scheduler().Stats())
		case 2:
			next, ok := eng.NextEventAt()
			log += fmt.Sprint(next, ok, eng.Pending())
		case 3:
			var tally gpusim.Tally
			node.ReadTally(&tally)
			log += fmt.Sprint(tally)
		case 4:
			eng.At(d, func(now simclock.Time) { log += fmt.Sprintf("%d at the completion: %v\n", now, node.Stats()) })
		case 5:
			node.Device(1).SetSpeed(0.5)
			eng.After(20*simclock.Time(time.Microsecond), func(simclock.Time) { node.Device(1).SetSpeed(1) })
		}
		log += "\n"
	}
	rt.SetOnDone(func(c runtimes.Completion) {
		if o.done = append(o.done, c); len(o.done) == 3 {
			return
		}
		if err := rt.Submit(w); err != nil {
			t.Fatal(err)
		}
		if len(o.done) == 2 && p.submit {
			touch(c.Done)
		}
	})
	eng.At(0, func(simclock.Time) {
		if err := rt.Submit(w); err != nil {
			t.Fatal(err)
		}
	})
	if !p.submit {
		eng.At(p.at, func(now simclock.Time) {
			if p.after {
				eng.At(now, touch)
				return
			}
			touch(now)
		})
	}
	eng.Run()
	var tally gpusim.Tally
	node.ReadTally(&tally)
	log += fmt.Sprintf("ids %d %d\n", tally.Kernels, tally.Collectives)
	o.dev, o.sched, o.end = node.Stats(), rt.Scheduler().Stats(), eng.Now()
	o.replays, o.catchUps = runtimes.Replays(rt), runtimes.CatchUps(rt)
	return o, log
}

// TestCatchUpAtEveryPosition touches a replayed iteration, one decode
// and one prefill shape, at every instant an event of the plain run's
// window fires at: before the node's events at that instant, and after
// those scheduled before it. It also touches it from the completion
// callback right after the submit, at one nanosecond before the
// completion and at the completion instant itself. The touches rotate
// through a DeviceStats, scheduler Stats, queue and tally reading, an
// event scheduled at the completion instant and a device slowdown. The
// replaying run must catch the iteration up exactly once and agree with
// the simulated one on every completion, the final DeviceStats,
// scheduler counters and kernel and collective ids, and every foreign
// event's firing instant and reading. The second iteration, the first
// of its shape on a warm node, replays untouched from a synthesized
// record.
func TestCatchUpAtEveryPosition(t *testing.T) {
	for _, w := range []model.Workload{
		{Batch: 4, CtxLen: 24, Phase: model.Decode},
		{Batch: 1, SeqLen: 12, Phase: model.Context},
	} {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			// The plain run's window: the third iteration's submit and
			// completion, and every instant an event fires at in between.
			eng, node, rt := newLiger(t, model.Tiny(), liger.DefaultConfig("a100"))
			runtimes.SetReplay(rt, false)
			node.KeepUnfolded()
			var done []simclock.Time
			rt.SetOnDone(func(c runtimes.Completion) {
				if done = append(done, c.Done); len(done) < 3 {
					rt.Submit(w)
				}
			})
			eng.At(0, func(simclock.Time) { rt.Submit(w) })
			var fired []simclock.Time
			for eng.Step() {
				fired = append(fired, eng.Now())
			}
			s, d := done[1], done[2]
			points := []touchPoint{{submit: true}, {at: d - 1}}
			for _, at := range slices.Compact(fired) {
				if s < at && at <= d {
					points = append(points, touchPoint{at: at}, touchPoint{at: at, after: true})
				}
			}
			if len(points) < 20 {
				t.Fatalf("%d touch points in the window [%v, %v]", len(points), s, d)
			}
			t.Logf("%d touch points in the window [%v, %v]", len(points), s, d)
			for i, p := range points {
				off, offLog := touchedChain(t, w, d, p, i, false)
				on, onLog := touchedChain(t, w, d, p, i, true)
				if diff := on.diff(off); diff != "" {
					t.Fatalf("touch %+v kind %d: replay on differs from replay off: %s", p, i%6, diff)
				}
				if onLog != offLog {
					t.Fatalf("touch %+v kind %d: firing logs differ:\n%s\n%s", p, i%6, onLog, offLog)
				}
				if on.catchUps != 1 || on.replays != 1 {
					t.Fatalf("touch %+v kind %d: %d catch-ups and %d replays, want 1 and 1", p, i%6, on.catchUps, on.replays)
				}
			}
		})
	}
}
