package runtimes_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

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

// firstKernel is a DepTracer keeping the dependency record of the first
// kernel launched at each submit instant.
type firstKernel struct {
	deps map[simclock.Time]gpusim.KernelDep
}

func (f *firstKernel) KernelStart(int, string, gpusim.KernelClass, simclock.Time)              {}
func (f *firstKernel) KernelEnd(int, string, gpusim.KernelClass, simclock.Time, simclock.Time) {}
func (f *firstKernel) KernelDep(d gpusim.KernelDep) {
	if old, ok := f.deps[d.Issued]; !ok || d.ID < old.ID {
		f.deps[d.Issued] = d
	}
}

// chain runs n iterations of w on a fresh node with replay off, the
// first submitted at start and each later one gap after the completion
// of the one before (gap 0: from inside the completion). It returns each
// iteration's record, the first kernel's dependency record of each when
// tracer is set.
func chain(t *testing.T, start, gap simclock.Time, w model.Workload, n int, tracer *firstKernel) []iteration {
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
			tr := &firstKernel{deps: map[simclock.Time]gpusim.KernelDep{}}
			its := chain(t, 5, 0, w, 2, tr)
			cold, warmDep := tr.deps[5], tr.deps[5+its[0].dur]
			if cold.Serialized != 0 || warmDep.Serialized != gap {
				t.Fatalf("first kernel serialized %v cold and %v warm, want 0 and %v", cold.Serialized, warmDep.Serialized, gap)
			}
		})
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
}

// outcome is everything a continuous run reports.
type outcome struct {
	done          []runtimes.Completion
	first, finish []simclock.Time
	counters      [5]int
	dev           []gpusim.DeviceStats
	sched         liger.Stats
	readings      []string
	end           simclock.Time
	// replays counts replayed iterations; replayedAt holds their
	// completion instants.
	replays    int
	replayedAt []simclock.Time
}

// newContinuousRun decodes fuzz input into a scenario: a pool cap,
// arrival gaps of 25 µs units, prompt and generation lengths in pairs,
// and mode bits (1: intrude, 2: faults).
func newContinuousRun(pool uint8, gaps, lens []byte, mode uint8) continuousRun {
	sc := continuousRun{pool: 1 + int(pool%8), intrude: mode&1 != 0, faults: mode&2 != 0}
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
			o.replayedAt = append(o.replayedAt, c.Done)
		}
		o.done = append(o.done, c)
		cb.OnDone(c)
		if sc.intrude && len(o.done)%3 == 0 {
			eng.After(simclock.Time(len(o.done)%7)*simclock.Time(time.Microsecond)+500, read)
		}
	})
	if sc.faults {
		node.KeepUnfolded()
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
	eng.Run()
	if err := cb.Err(); err != nil {
		t.Fatal(err)
	}
	if err := serve.AuditKV(kv); err != nil {
		t.Fatal(err)
	}
	o.counters = [5]int{cb.Iterations, cb.PoolSum, cb.PrefillBatches, cb.Preemptions, cb.RecomputedTokens}
	o.dev, o.sched, o.end = node.Stats(), rt.Scheduler().Stats(), eng.Now()
	o.replays = runtimes.Replays(rt)
	return o
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
// replay on and off and fails on any difference. With mode bit 4 set,
// the last arrival first moves onto a completion instant of an
// iteration the run replays without it. It returns the replaying run,
// or nothing for an input with no sequence.
func checkContinuous(t *testing.T, pool uint8, gaps, lens []byte, mode uint8) outcome {
	sc := newContinuousRun(pool, gaps, lens, mode)
	if len(sc.at) == 0 {
		return outcome{}
	}
	if mode&4 != 0 && len(sc.at) > 1 {
		last := len(sc.at) - 1
		head := sc
		head.at, head.prompt, head.gen = sc.at[:last], sc.prompt[:last], sc.gen[:last]
		if at := head.run(t, true).replayedAt; len(at) > 0 {
			sc.at = append(slices.Clone(sc.at[:last]), at[int(pool)%len(at)])
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
	f.Add(uint8(0), []byte{}, []byte(seedLens[:8]), uint8(7))
	f.Fuzz(func(t *testing.T, pool uint8, gaps, lens []byte, mode uint8) {
		checkContinuous(t, pool, gaps, lens, mode)
	})
}

// continuousSeeds are the fuzz seeds that must replay.
var continuousSeeds = []struct {
	name string
	pool uint8
	gaps []byte
	mode uint8
}{
	{"plain", 3, []byte{2, 0, 9, 1, 40}, 0},
	{"arrival at a replayed completion instant", 7, []byte{30, 4}, 4},
	{"readings scheduled into replay windows", 2, []byte{1, 3, 0}, 1},
	{"fault schedule", 2, []byte{6, 2, 90}, 2},
}

// TestContinuousReplayEngages pins that the differential above compares
// something: each seed scenario still replays iterations.
func TestContinuousReplayEngages(t *testing.T) {
	for _, in := range continuousSeeds {
		if on := checkContinuous(t, in.pool, in.gaps, []byte(seedLens), in.mode); on.replays == 0 {
			t.Fatalf("%s: no iteration replayed", in.name)
		}
	}
}

// spanCount is a tracer counting kernel ends.
type spanCount struct{ n int }

func (c *spanCount) KernelStart(int, string, gpusim.KernelClass, simclock.Time) {}
func (c *spanCount) KernelEnd(int, string, gpusim.KernelClass, simclock.Time, simclock.Time) {
	c.n++
}

// TestReplayFollowsTheRules perturbs a chain of solo iterations, which
// replay, in every way the rules guard against, at fixed iterations:
//
//   - a fault window opens and closes inside the first recorded
//     iteration, and later a callback slows a device after it submits;
//   - a second submit follows the chained one, including while a new
//     shape is being recorded;
//   - a callback reads the scheduler after it submits, or schedules
//     readings of the node into the window, at the instants the first
//     commands and the first kernel after the leading wait arrive;
//   - the run stops eight times with RunUntil to read the node;
//   - a callback fails a device after it submits (a failover);
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
		spans := &spanCount{}
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
				node.SetTracer(spans)
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
		reads += fmt.Sprintf("memory %d spans %d\n", node.Device(0).MemUsed(), spans.n)
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

// TestReplayStaysOffOnShards: a shard of a sharded executor learns of
// events other shards post to it only at window barriers, so replay
// stays off there, and no record is kept. Another shard posts submits
// into the chain under a lookahead longer than an iteration, where the
// executor's window bound alone would not stop a replay; replay on and
// off must agree and replay nothing.
func TestReplayStaysOffOnShards(t *testing.T) {
	run := func(replay bool) outcome {
		ex := simclock.NewSharded(2, 5*simclock.Time(time.Millisecond), 1)
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
		ex.Run()
		o.dev, o.sched, o.end, o.replays = node.Stats(), rt.Scheduler().Stats(), eng.Now(), runtimes.Replays(rt)
		return o
	}
	off, on := run(false), run(true)
	if d := on.diff(off); d != "" {
		t.Fatalf("replay on differs from replay off: %s", d)
	}
	if on.replays != 0 {
		t.Fatalf("%d iterations replayed on a shard", on.replays)
	}
}
