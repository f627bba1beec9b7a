package liger

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// deviceIdleTime sums the gaps between consecutive kernel spans on one
// device — exposed launch/synchronization overhead.
func deviceIdleTime(rec *trace.Recorder, dev int) time.Duration {
	var spans []trace.Span
	for _, s := range rec.Spans() {
		if s.Device == dev {
			spans = append(spans, s)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var idle time.Duration
	var busyUntil simclock.Time
	for _, s := range spans {
		if s.Start > busyUntil && busyUntil != 0 {
			idle += time.Duration(s.Start - busyUntil)
		}
		if s.End > busyUntil {
			busyUntil = s.End
		}
	}
	return idle
}

// TestHybridPreLaunchHidesOverhead verifies the Fig. 8 mechanism
// directly: with hybrid synchronization the device timeline has almost
// no idle gaps between rounds (launches happen while the last kernel of
// the previous subset runs); with CPU-GPU synchronization every switch
// point exposes the multi-GPU round trip.
func TestHybridPreLaunchHidesOverhead(t *testing.T) {
	run := func(mode SyncMode) (time.Duration, int) {
		eng := simclock.New()
		node, err := gpusim.New(eng, hw.V100Node())
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		node.SetTracer(rec)
		cfg := testCfg()
		cfg.Sync = mode
		s, err := NewScheduler(node, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.After(0, func(simclock.Time) {
			s.Submit(syntheticBatch(0, 16, 3, 50*time.Microsecond, 40*time.Microsecond))
		})
		eng.Run()
		return deviceIdleTime(rec, 0), s.Stats().Rounds
	}
	hybridIdle, rounds := run(Hybrid)
	cpugpuIdle, _ := run(CPUGPU)

	// CPU-GPU: each switch costs notify + relaunch, >20µs per round on a
	// 4-GPU node (§4.5). Hybrid must hide nearly all of it.
	if hybridIdle*4 > cpugpuIdle {
		t.Fatalf("hybrid idle %v not much below cpu-gpu idle %v", hybridIdle, cpugpuIdle)
	}
	perRound := cpugpuIdle / time.Duration(rounds)
	if perRound < 20*time.Microsecond {
		t.Fatalf("cpu-gpu per-switch overhead %v, paper reports >20µs", perRound)
	}
	perRoundHybrid := hybridIdle / time.Duration(rounds)
	if perRoundHybrid > 6*time.Microsecond {
		t.Fatalf("hybrid per-switch overhead %v should be a few µs at most", perRoundHybrid)
	}
}

// leadRun runs a short fault-free Hybrid Liger run on an unfolded
// four-device node with the given launch issue gap and returns each
// device's deps and spans with every id blanked (kept only as "none" or
// "some"), plus the scheduler's round count.
func leadRun(t *testing.T, gap time.Duration) (deps map[int][]trace.Dep, spans map[int][]trace.Span, rounds int) {
	t.Helper()
	spec := hw.A100Node()
	spec.Host.IssueGap = gap
	eng := simclock.New()
	node := gpusim.MustNew(eng, spec)
	node.KeepUnfolded()
	rec := trace.NewRecorder()
	node.SetTracer(rec)
	asm, err := NewAssembler(parallel.NewCompiler(spec, nccl.Config{ReducedChannels: true}), model.OPT30B().WithLayers(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(node, DefaultConfig(spec.Name))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w := model.Workload{Batch: 2, SeqLen: 32 + 16*i, Phase: model.Context}
		eng.At(simclock.Time(i)*simclock.Time(300*time.Microsecond), func(simclock.Time) {
			b, err := asm.Assemble(w)
			if err != nil {
				t.Fatal(err)
			}
			s.Submit(b)
		})
	}
	eng.Run()
	if st := s.Stats(); st.BatchesDone != 8 || st.Decompositions == 0 {
		t.Fatalf("%d of 8 batches done, %d decompositions", st.BatchesDone, st.Decompositions)
	}
	// Each device launches its kernels in id order, so sorting by id lines
	// up the devices' copies of every launch.
	all, allSpans := rec.Deps(), rec.Spans()
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	sort.Slice(allSpans, func(i, j int) bool { return allSpans[i].ID < allSpans[j].ID })
	blank := func(id int) int { return min(id, 0) }
	deps, spans = map[int][]trace.Dep{}, map[int][]trace.Span{}
	for _, d := range all {
		dev := d.Device
		d.ID, d.Device, d.Stream = 0, 0, 0
		d.ConnPred, d.HeadPred, d.AdmitPred = blank(d.ConnPred), blank(d.HeadPred), blank(d.AdmitPred)
		deps[dev] = append(deps[dev], d)
	}
	for _, sp := range allSpans {
		dev := sp.Device
		sp.ID, sp.Device = 0, 0
		spans[dev] = append(spans[dev], sp)
	}
	return deps, spans, s.Stats().Rounds
}

// TestFollowersMatchLeadDiffers pins why folding keeps the lead device
// apart under Hybrid sync. Unfolded, the followers record the same spans
// and deps as each other, apart from their ids. The lead differs, and
// only through the pre-launch Record it alone issues each round: that
// command costs one issue gap on its launch connection, so one kernel
// per round arrives one gap later — and with a zero issue gap the lead
// matches the followers too.
func TestFollowersMatchLeadDiffers(t *testing.T) {
	gap := hw.A100Node().Host.IssueGap
	deps, spans, rounds := leadRun(t, gap)
	for dev := 2; dev < 4; dev++ {
		if !reflect.DeepEqual(deps[dev], deps[1]) || !reflect.DeepEqual(spans[dev], spans[1]) {
			t.Fatalf("follower %d ran differently from follower 1", dev)
		}
	}
	if len(deps[0]) != len(deps[1]) || len(spans[0]) != len(spans[1]) {
		t.Fatalf("lead ran %d kernels, followers %d", len(deps[0]), len(deps[1]))
	}
	// The pre-launch Record delays deliveries on the lead's connection by
	// one gap, never more, on at most one kernel per round; the lead's
	// first divergence is such a late delivery, and everything else it
	// does differently follows from one.
	late, first := 0, -1
	for i, d := range deps[0] {
		f := deps[1][i]
		if d == f {
			continue
		}
		if first < 0 {
			first = i
		}
		if d.Issued != f.Issued || (d.Delivered != f.Delivered && d.Delivered-f.Delivered != gap) {
			t.Fatalf("lead kernel %d was issued or delivered differently:\n lead     %+v\n follower %+v", i, d, f)
		}
		if d.Delivered != f.Delivered {
			late++
		}
	}
	if first < 0 || deps[0][first].Delivered == deps[1][first].Delivered {
		t.Fatalf("the lead's first divergence (kernel %d) is not a late delivery", first)
	}
	if late > rounds {
		t.Fatalf("%d lead kernels delivered late over %d rounds, want one per round at most", late, rounds)
	}
	deps, spans, _ = leadRun(t, 0)
	if !reflect.DeepEqual(deps[0], deps[1]) || !reflect.DeepEqual(spans[0], spans[1]) {
		t.Fatal("with a zero issue gap the lead still differs from the followers")
	}
}
