package gpusim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// foldRun is what one simulation reports: every recorder stream, the
// device counters, the batch completions, whether the node folded, and
// whether it folded the lead with the followers (Node.FoldLed).
type foldRun struct {
	rec        *trace.Recorder
	stats      []gpusim.DeviceStats
	done       []runtimes.Completion
	events     gpusim.EventCounters
	folded     bool
	leadFolded bool
}

// recordCompletions wraps the runtime's completion callback so the run
// keeps every completion in order.
func recordCompletions(rt runtimes.Runtime, out *[]runtimes.Completion, next func(runtimes.Completion)) {
	rt.SetOnDone(func(c runtimes.Completion) {
		*out = append(*out, c)
		if next != nil {
			next(c)
		}
	})
}

// fig10Fold runs a traced Fig. 10 point: Liger interleaving small
// batches over four devices under the given configuration and faults.
func fig10Fold(t *testing.T, cfg liger.Config, sched *faults.Schedule, fold bool) foldRun {
	t.Helper()
	rec := trace.NewRecorder()
	eng, err := core.NewEngine(core.Options{
		Node: hw.A100Node(), Model: model.OPT30B().WithLayers(4),
		Runtime: core.KindLiger, Liger: cfg, LigerSet: true, Tracer: rec, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := eng.SimNode()
	gpusim.SetFolding(node, fold)
	arrivals, err := serve.Generate(serve.TraceConfig{
		Batches: 24, BatchSize: 2, RatePerSec: 2000, MinSeq: 16, MaxSeq: 128,
		Phase: model.Context, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk, rt := eng.Clock(), eng.Runtime()
	var done []runtimes.Completion
	recordCompletions(rt, &done, nil)
	for _, a := range arrivals {
		w := a.Workload
		clk.At(a.At, func(simclock.Time) {
			if err := rt.Submit(w); err != nil {
				t.Error(err)
			}
		})
	}
	clk.Run()
	if len(done) != len(arrivals) {
		t.Fatalf("%d of %d batches completed", len(done), len(arrivals))
	}
	return foldRun{rec: rec, stats: node.Stats(), done: done, events: node.EventCounters(), folded: node.Folded()}
}

// serveDecodeFold runs a prefix of a decode-heavy serving workload:
// continuous batching over the paged KV cache, one small Liger submit
// per iteration, with degradation-aware scheduling.
func serveDecodeFold(t *testing.T, fold bool) foldRun {
	t.Helper()
	spec := model.OPT30B()
	rec := trace.NewRecorder()
	cfg := liger.DefaultConfig(hw.A100Node().Name)
	cfg.DegradationAware = true
	eng, err := core.NewEngine(core.Options{Node: hw.A100Node(), Model: spec, Runtime: core.KindLiger,
		Liger: cfg, LigerSet: true, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	node := eng.SimNode()
	gpusim.SetFolding(node, fold)
	kv, err := kvcache.NewPaged(hw.A100Node(), spec, 48, 96, kvcache.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const seqs = 24
	finished := 0
	cb, err := serve.NewContinuousBatcher(eng.Runtime(), kv, 48, serve.ContinuousHooks{
		Finished: func(int, simclock.Time) { finished++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var done []runtimes.Completion
	recordCompletions(eng.Runtime(), &done, cb.OnDone)
	clk := eng.Clock()
	for i := 0; i < seqs; i++ {
		g := serve.GenSeq{ID: i, Prompt: 16 + 7*i%33, Gen: 16 + 11*i%33}
		clk.At(simclock.Time(i)*simclock.Time(15*time.Millisecond), func(now simclock.Time) { cb.Add(g, now) })
	}
	clk.Run()
	if err := cb.Err(); err != nil {
		t.Fatal(err)
	}
	if finished != seqs {
		t.Fatalf("%d of %d sequences finished", finished, seqs)
	}
	return foldRun{rec: rec, stats: node.Stats(), done: done, events: node.EventCounters(), folded: node.Folded()}
}

// byDevice splits records into per-device sequences, keeping their
// order.
func byDevice[T any](recs []T, dev func(T) int) map[int][]T {
	out := map[int][]T{}
	for _, r := range recs {
		out[dev(r)] = append(out[dev(r)], r)
	}
	return out
}

// sameRun fails the test unless the two runs recorded the same things.
// Spans, waits and samples must arrive in the same order. Deps and
// collective enqueues must match device by device: a representative
// reports a record's copies back to back, while unfolded devices each
// handle their copy of an event or launch in turn, so such records of
// different devices at one instant can interleave differently. A run
// that folded its lead is not compared on deps: its followers' carry the
// lead's delivery times, which is why such a node refuses a tracer.
func sameRun(t *testing.T, got, want foldRun) {
	t.Helper()
	if len(want.rec.Spans()) == 0 || len(want.rec.Deps()) != len(want.rec.Spans()) || len(want.rec.Waits()) == 0 ||
		len(want.rec.Enqueues()) == 0 || len(want.rec.QueueSamples()) == 0 || len(want.done) == 0 {
		t.Fatal("the oracle run recorded too little to compare")
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"spans", got.rec.Spans(), want.rec.Spans()},
		{"deps", byDevice(got.rec.Deps(), depDevice), byDevice(want.rec.Deps(), depDevice)},
		{"waits", got.rec.Waits(), want.rec.Waits()},
		{"enqueues", byDevice(got.rec.Enqueues(), enqDevice), byDevice(want.rec.Enqueues(), enqDevice)},
		{"queue samples", got.rec.QueueSamples(), want.rec.QueueSamples()},
		{"rate samples", got.rec.RateSamples(), want.rec.RateSamples()},
		{"collective counts", got.rec.Counts(), want.rec.Counts()},
		{"device stats", got.stats, want.stats},
		{"batch completions", got.done, want.done},
	} {
		if c.what == "deps" && got.leadFolded {
			continue
		}
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differ from the unfolded run", c.what)
		}
	}
}

func depDevice(d trace.Dep) int          { return d.Device }
func enqDevice(e trace.EnqueueEvent) int { return e.Device }

// soloLeadFold runs one solo OPT-30B iteration under Hybrid sync on a
// node that folds the lead with the followers, as a replay probe node
// does, or on an unfolded node.
func soloLeadFold(t *testing.T, fold bool) foldRun {
	t.Helper()
	eng, err := core.NewEngine(core.Options{Node: hw.A100Node(), Model: model.OPT30B(), Runtime: core.KindLiger})
	if err != nil {
		t.Fatal(err)
	}
	node, rec := eng.SimNode(), trace.NewRecorder()
	if fold {
		node.FoldLeads()
		gpusim.TraceFoldedLead(node, rec)
	} else {
		gpusim.SetFolding(node, false)
		node.SetTracer(rec)
	}
	rt := eng.Runtime()
	var done []runtimes.Completion
	recordCompletions(rt, &done, nil)
	eng.Clock().At(0, func(simclock.Time) {
		if err := rt.Submit(model.Workload{Batch: 8, CtxLen: 40, Phase: model.Decode}); err != nil {
			t.Error(err)
		}
	})
	eng.Clock().Run()
	if len(done) != 1 || node.Diverged() {
		t.Fatalf("%d iterations completed, diverged %v; want 1, false", len(done), node.Diverged())
	}
	return foldRun{rec: rec, stats: node.Stats(), done: done, events: node.EventCounters(), folded: node.Folded(), leadFolded: fold}
}

// The fold is exact: folded runs record what the unfolded oracle
// records — every span, dep, wait, enqueue, queue and rate sample with
// the same ids, the same device counters and the same completions —
// while the engine runs fewer device events. So does a fold that takes
// the lead too, deps aside, where it does not diverge.
func TestFoldMatchesUnfolded(t *testing.T) {
	sync := func(m liger.SyncMode) liger.Config {
		cfg := liger.DefaultConfig(hw.A100Node().Name)
		cfg.Sync = m
		return cfg
	}
	fig10 := func(m liger.SyncMode) func(*testing.T, bool) foldRun {
		return func(t *testing.T, fold bool) foldRun { return fig10Fold(t, sync(m), nil, fold) }
	}
	cases := []struct {
		name string
		run  func(t *testing.T, fold bool) foldRun
	}{
		{"fig10-hybrid", fig10(liger.Hybrid)},
		{"fig10-cpugpu", fig10(liger.CPUGPU)},
		{"fig10-interstream", fig10(liger.InterStreamOnly)},
		{"serve-decode", serveDecodeFold},
		{"solo-lead-folded", soloLeadFold},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			folded, unfolded := c.run(t, true), c.run(t, false)
			if !folded.folded || unfolded.folded {
				t.Fatalf("folded run folded: %v, unfolded run folded: %v", folded.folded, unfolded.folded)
			}
			sameRun(t, folded, unfolded)
			if folded.events.Device >= unfolded.events.Device || folded.events.Stream >= unfolded.events.Stream {
				t.Errorf("folding did not cut device or stream events: %+v folded, %+v unfolded", folded.events, unfolded.events)
			}
		})
	}
}

// A fault schedule makes the devices diverge, so the node stays
// unfolded and runs exactly as it does with folding turned off.
func TestFoldSlowdownStaysUnfolded(t *testing.T) {
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.Slowdown, Device: 2, Start: 200 * time.Microsecond, Duration: 3 * time.Millisecond, Factor: 0.6},
	}}
	cfg := liger.DefaultConfig(hw.A100Node().Name)
	on, off := fig10Fold(t, cfg, sched, true), fig10Fold(t, cfg, sched, false)
	if on.folded {
		t.Fatal("a node with a device slowdown folded")
	}
	if len(on.rec.RateSamples()) == 0 {
		t.Fatal("the slowdown never fired")
	}
	sameRun(t, on, off)
	if on.events != off.events {
		t.Errorf("event counters %+v, want %+v", on.events, off.events)
	}
}

// smallLiger builds a Liger engine on a four-device node and runs one
// batch; before runs first, ahead of every launch.
func smallLiger(t *testing.T, before func(n *gpusim.Node)) *gpusim.Node {
	t.Helper()
	eng, err := core.NewEngine(core.Options{Node: hw.A100Node(), Model: model.OPT30B().WithLayers(2), Runtime: core.KindLiger})
	if err != nil {
		t.Fatal(err)
	}
	node := eng.SimNode()
	if before != nil {
		before(node)
	}
	rt := eng.Runtime()
	rt.SetOnDone(func(runtimes.Completion) {})
	eng.Clock().At(0, func(simclock.Time) {
		if err := rt.Submit(model.Workload{Batch: 1, SeqLen: 32, Phase: model.Context}); err != nil {
			t.Error(err)
		}
	})
	eng.Clock().Run()
	return node
}

// A per-device change before the run keeps the node unfolded.
func TestFoldKeptUnfoldedByDeviceChange(t *testing.T) {
	for name, change := range map[string]func(n *gpusim.Node){
		"none":          nil,
		"SetSpeed":      func(n *gpusim.Node) { n.Device(2).SetSpeed(0.9) },
		"SetLinkFactor": func(n *gpusim.Node) { n.Device(1).SetLinkFactor(0.9) },
		"Alloc":         func(n *gpusim.Node) { _ = n.Device(3).Alloc(1) },
		"KeepUnfolded":  func(n *gpusim.Node) { n.KeepUnfolded() },
	} {
		if got, want := smallLiger(t, change).Folded(), change == nil; got != want {
			t.Errorf("%s: folded %v, want %v", name, got, want)
		}
	}
}

// Once a node folded, a per-device change on a folded device panics with
// a message naming the device, and so does a device failure anywhere on
// the node.
func TestFoldDivergencePanics(t *testing.T) {
	node := smallLiger(t, nil)
	if !node.Folded() {
		t.Fatal("the node did not fold")
	}
	for name, call := range map[string]struct {
		dev int
		fn  func()
	}{
		"SetSpeed":      {2, func() { node.Device(2).SetSpeed(0.5) }},
		"SetLinkFactor": {3, func() { node.Device(3).SetLinkFactor(0.5) }},
		"Alloc":         {1, func() { _ = node.Device(1).Alloc(1) }},
		"FailDevice":    {0, func() { node.FailDevice(0) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("device %d", call.dev); !strings.Contains(msg, want) || !strings.Contains(msg, name) {
					t.Errorf("%s: panic %q, want one naming %s and %q", name, msg, name, want)
				}
			}()
			call.fn()
		}()
	}
	// The lead is not folded: it may still change.
	node.Device(0).SetSpeed(0.5)
}

// OnDone reports each kernel instance once, with the number of devices
// it ran on, so summing copies per kernel counts the same completions
// folded as unfolded: a folded representative's kernel reports the
// group's size in one call, each unfolded device's kernel 1.
func TestOnDoneCountsCopies(t *testing.T) {
	run := func(fold bool) (copies map[string]int, calls int) {
		eng := simclock.New()
		node, err := gpusim.New(eng, hw.A100Node())
		if err != nil {
			t.Fatal(err)
		}
		gpusim.SetFolding(node, fold)
		group := []int{1, 2, 3}
		streams := make([]*gpusim.Stream, node.NumDevices())
		for d := range streams {
			streams[d] = node.NewStream(d)
		}
		devs := group
		if rep := node.Fold(group); rep >= 0 {
			devs = []int{rep}
		}
		if node.Folded() != fold {
			t.Fatalf("folding %v, want %v", node.Folded(), fold)
		}
		copies = map[string]int{}
		for round := range 3 {
			coll := node.NewCollective(len(group))
			for _, d := range devs {
				if len(devs) == 1 {
					node.Device(d).ReserveBlock(3)
				}
				for i, name := range []string{"gemm", "all_reduce", "gelu"} {
					spec := gpusim.KernelSpec{Name: fmt.Sprintf("r%d.%s", round, name), Class: gpusim.Compute,
						Duration: time.Duration(10+5*i) * time.Microsecond, ComputeDemand: 0.5, MemBWDemand: 0.6, Req: -1}
					if name == "all_reduce" {
						spec.Class, spec.Coll, spec.ComputeDemand = gpusim.Comm, coll, 0.1
					}
					spec.OnDone = func(_ simclock.Time, n int) {
						copies[spec.Name] += n
						calls++
					}
					streams[d].Launch(spec)
				}
			}
		}
		eng.Run()
		return copies, calls
	}
	folded, foldedCalls := run(true)
	unfolded, unfoldedCalls := run(false)
	if !reflect.DeepEqual(folded, unfolded) {
		t.Fatalf("copies per kernel folded %v, unfolded %v", folded, unfolded)
	}
	for name, n := range unfolded {
		if n != 3 {
			t.Fatalf("%s completed on %d devices, want 3", name, n)
		}
	}
	if foldedCalls != 9 || unfoldedCalls != 27 {
		t.Fatalf("OnDone ran %d times folded and %d unfolded, want 9 and 27", foldedCalls, unfoldedCalls)
	}
}

// leadGroup returns an engine and a node that folds leads, with two
// streams on each device, on launch connections 0 and 1, and all four
// devices folded led by device 0, and the representative's two streams.
func leadGroup(t *testing.T) (*simclock.Engine, *gpusim.Node, [2]*gpusim.Stream) {
	t.Helper()
	eng := simclock.New()
	node := gpusim.MustNew(eng, hw.A100Node())
	node.FoldLeads()
	var rep [2]*gpusim.Stream
	for d := range node.NumDevices() {
		rep = [2]*gpusim.Stream{node.NewStreamOnConnection(d, 0), node.NewStreamOnConnection(d, 1)}
	}
	if id, copies := node.FoldLed([]int{0, 1, 2, 3}); id != 3 || copies != 4 {
		t.Fatalf("FoldLed: representative %d of %d devices, want 3 of 4", id, copies)
	}
	return eng, node, rep
}

// kernel is a compute kernel of the given SM demand and duration in µs.
func kernel(name string, demand float64, us int) gpusim.KernelSpec {
	return gpusim.KernelSpec{Name: name, Class: gpusim.Compute, Duration: time.Duration(us) * time.Microsecond,
		ComputeDemand: demand, Req: -1}
}

// A lead-only record delays the lead's later launches on its connection
// by an issue gap (1.5 µs after the 5 µs launch latency on an A100 node),
// and the followers' not. The fold diverges exactly when that gap
// binds: a command the followers got earlier reaches the head of its
// stream before the lead's delivery, or is queued for admission, whose
// order reads delivery times.
func TestLeadFoldDiverges(t *testing.T) {
	cases := []struct {
		name string
		// hog starts a 0.9-SM kernel on the second stream at 0.
		hog bool
		// first is a kernel issued before the lead-only record (none when
		// its duration is 0); gap is when the kernel after the record is
		// issued, in µs.
		first, gap int
		diverged   bool
	}{
		// The record is delivered at 5 µs and the kernel after it, issued
		// with it, at 6.5 µs to the lead and 5 µs to the followers: at
		// 5 µs it heads its stream, delivered only to the followers.
		{"delivery wait", false, 0, 0, true},
		// A 30 µs kernel ahead of the record holds the kernel after it
		// until both deliveries passed, and the hog keeps it from
		// starting: it is queued for admission.
		{"admission order", true, 30, 0, true},
		// The same kernel admitted at once: the gap bound, but nothing
		// read it.
		{"gap unread", false, 30, 0, false},
		// Issued 50 µs after the record, the kernel is delivered at
		// 55 µs to every device.
		{"gap does not bind", true, 0, 50, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, node, st := leadGroup(t)
			rep := node.Device(3)
			if c.hog {
				rep.ReserveBlock(1)
				st[1].Launch(kernel("hog", 0.9, 100))
			}
			if c.first > 0 {
				rep.ReserveBlock(1)
				st[0].Launch(kernel("first", 0.05, c.first))
			}
			st[0].RecordLead().Release()
			eng.At(simclock.Time(c.gap)*simclock.Time(time.Microsecond), func(simclock.Time) {
				rep.ReserveBlock(1)
				st[0].Launch(kernel("after", 0.5, 10))
			})
			eng.Run()
			if got := node.Diverged(); got != c.diverged {
				t.Fatalf("diverged %v, want %v", got, c.diverged)
			}
		})
	}
}

// A node that folds leads refuses a tracer, and a node with a tracer
// cannot be made to fold leads; RecordLead panics on a representative
// whose group has no lead.
func TestLeadFoldRefusals(t *testing.T) {
	panics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	node := gpusim.MustNew(simclock.New(), hw.A100Node())
	node.FoldLeads()
	panics("SetTracer on a node that folds leads", func() { node.SetTracer(trace.NewRecorder()) })
	node = gpusim.MustNew(simclock.New(), hw.A100Node())
	node.SetTracer(trace.NewRecorder())
	panics("FoldLeads on a node with a tracer", node.FoldLeads)
	node = gpusim.MustNew(simclock.New(), hw.A100Node())
	var last *gpusim.Stream
	for d := range node.NumDevices() {
		last = node.NewStream(d)
	}
	if rep, copies := node.FoldLed([]int{0, 1, 2, 3}); rep != 3 || copies != 3 {
		t.Fatalf("FoldLed without FoldLeads: representative %d of %d devices, want 3 of 3", rep, copies)
	}
	panics("RecordLead on a representative without its lead", func() { last.RecordLead() })
}
