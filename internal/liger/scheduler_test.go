package liger

import (
	"fmt"
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

func testRig(t testing.TB, cfg Config) (*simclock.Engine, *gpusim.Node, *Scheduler) {
	t.Helper()
	eng := simclock.New()
	node, err := gpusim.New(eng, hw.V100Node())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, node, s
}

func testCfg() Config {
	c := DefaultConfig("v100")
	return c
}

// pop consumes and returns the head func.
func (b *Batch) pop() Func {
	f := b.head()
	b.advance()
	return f
}

// syntheticBatch builds a batch alternating nComp compute kernels
// (compDur each) with one all-reduce (commDur), repeated layers times.
func syntheticBatch(id, layers, nComp int, compDur, commDur time.Duration) *Batch {
	var ks []parallel.KernelDesc
	for l := 0; l < layers; l++ {
		for c := 0; c < nComp; c++ {
			ks = append(ks, parallel.SyntheticKernel("comp", gpusim.Compute, compDur, 0.85, 0.5, false).WithEqualSplit())
		}
		ks = append(ks, parallel.SyntheticKernel("ar", gpusim.Comm, commDur, 0.08, 0.5, true).WithEqualSplit())
	}
	return NewBatch(id, model.Workload{Batch: 2, SeqLen: 16, Phase: model.Context}, ks)
}

func TestSingleBatchCompletes(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	b := syntheticBatch(0, 4, 3, 50*time.Microsecond, 40*time.Microsecond)
	var doneAt simclock.Time
	s.SetOnBatchDone(func(b *Batch, now simclock.Time) { doneAt = now })
	eng.After(0, func(simclock.Time) { s.Submit(b) })
	eng.Run()
	if !b.Completed() {
		t.Fatal("batch never completed")
	}
	if doneAt == 0 {
		t.Fatal("completion callback not fired")
	}
	// 4 layers x (150µs compute + 40µs comm) = 760µs of work plus launch
	// and sync overheads; anything within 2x is sane, below is not.
	work := 760 * time.Microsecond
	if b.Latency() < work {
		t.Fatalf("latency %v below total work %v", b.Latency(), work)
	}
	if b.Latency() > 2*work {
		t.Fatalf("latency %v too far above work %v (overhead not hidden)", b.Latency(), work)
	}
}

func TestSingleBatchDegeneratesToIntraOp(t *testing.T) {
	// §3.1: with no subsequent batches, every round has an empty
	// secondary subset.
	eng, _, s := testRig(t, testCfg())
	b := syntheticBatch(0, 6, 2, 50*time.Microsecond, 30*time.Microsecond)
	eng.After(0, func(simclock.Time) { s.Submit(b) })
	eng.Run()
	st := s.Stats()
	if st.SecondaryKernels != 0 {
		t.Fatalf("secondary kernels scheduled with one batch: %d", st.SecondaryKernels)
	}
	if st.EmptySecondary != st.Rounds {
		t.Fatalf("EmptySecondary %d != Rounds %d", st.EmptySecondary, st.Rounds)
	}
	// Rounds alternate compute/comm: 2 per layer.
	if st.Rounds != 12 {
		t.Fatalf("rounds = %d, want 12 (two per layer)", st.Rounds)
	}
}

func TestTwoBatchesInterleave(t *testing.T) {
	eng, node, s := testRig(t, testCfg())
	rec := trace.NewRecorder()
	node.SetTracer(rec)
	b0 := syntheticBatch(0, 8, 3, 60*time.Microsecond, 60*time.Microsecond)
	b1 := syntheticBatch(1, 8, 3, 60*time.Microsecond, 60*time.Microsecond)
	eng.After(0, func(simclock.Time) { s.Submit(b0); s.Submit(b1) })
	eng.Run()
	if !b0.Completed() || !b1.Completed() {
		t.Fatal("batches did not complete")
	}
	if s.Stats().SecondaryKernels == 0 {
		t.Fatal("no interleaving happened with two batches")
	}
	if ov := rec.OverlapTime(0); ov == 0 {
		t.Fatal("no compute/comm overlap recorded on device 0")
	}
	// Interleaving must beat strict serialization: two batches of 8
	// layers x (180+60)µs = 3.84ms total serial work.
	serial := 2 * 8 * 240 * time.Microsecond
	if b1.DoneAt >= simclock.Time(serial) {
		t.Fatalf("no throughput gain: second batch done at %v, serial bound %v", b1.DoneAt, serial)
	}
}

func TestPrimaryBatchPriority(t *testing.T) {
	// Principle 1: interleaving subsequent batches must not materially
	// slow the first batch.
	solo := func() simclock.Time {
		eng, _, s := testRig(t, testCfg())
		b := syntheticBatch(0, 8, 3, 60*time.Microsecond, 60*time.Microsecond)
		eng.After(0, func(simclock.Time) { s.Submit(b) })
		eng.Run()
		return b.DoneAt
	}()
	eng, _, s := testRig(t, testCfg())
	first := syntheticBatch(0, 8, 3, 60*time.Microsecond, 60*time.Microsecond)
	eng.After(0, func(simclock.Time) {
		s.Submit(first)
		for i := 1; i < 4; i++ {
			s.Submit(syntheticBatch(i, 8, 3, 60*time.Microsecond, 60*time.Microsecond))
		}
	})
	eng.Run()
	// Allow modest slowdown from contention (the §3.5 factor bounds it).
	limit := time.Duration(float64(solo) * 1.25)
	if time.Duration(first.DoneAt) > limit {
		t.Fatalf("primary batch slowed from %v to %v by interleaving", solo, first.DoneAt)
	}
}

func TestSecondarySubsetRespectsWindow(t *testing.T) {
	// The secondary subset's contention-scaled duration must not exceed
	// the primary window (Algorithm 1 + §3.5).
	cfg := testCfg()
	cfg.ContentionFactor = 1.2
	s := &Scheduler{cfg: cfg}
	primary := syntheticBatch(0, 1, 4, 50*time.Microsecond, 30*time.Microsecond)
	donor := syntheticBatch(1, 4, 1, 10*time.Microsecond, 40*time.Microsecond)
	donor.pop() // advance donor so its head is the all-reduce
	s.processing = []*Batch{primary, donor}
	sub0, window, typ := s.collectPrimary(primary)
	if typ != gpusim.Compute || len(sub0) != 4 || window != 200*time.Microsecond {
		t.Fatalf("primary subset: %d kernels, window %v, type %v", len(sub0), window, typ)
	}
	sub1 := s.collectSecondary(typ, window)
	var scaled float64
	for _, f := range sub1 {
		if f.Desc.Class != gpusim.Comm {
			t.Fatalf("secondary subset has %v kernel", f.Desc.Class)
		}
		scaled += float64(f.Desc.Duration) * cfg.ContentionFactor
	}
	if scaled > float64(window) {
		t.Fatalf("scaled secondary %v exceeds window %v", time.Duration(scaled), window)
	}
	if len(sub1) == 0 {
		t.Fatal("no secondary kernels collected")
	}
}

func TestCollectSecondarySkipsSameTypeHead(t *testing.T) {
	s := &Scheduler{cfg: testCfg()}
	primary := syntheticBatch(0, 1, 3, 50*time.Microsecond, 30*time.Microsecond)
	// Donor's head is compute — same type as the primary subset — so
	// nothing can be taken (Principle 1: same-type kernels would
	// interfere).
	donor := syntheticBatch(1, 2, 3, 50*time.Microsecond, 30*time.Microsecond)
	s.processing = []*Batch{primary, donor}
	_, window, typ := s.collectPrimary(primary)
	if sub1 := s.collectSecondary(typ, window); len(sub1) != 0 {
		t.Fatalf("took %d same-type kernels from donor", len(sub1))
	}
	if donor.Remaining() != 8 {
		t.Fatalf("donor consumed: %d remaining", donor.Remaining())
	}
}

func TestRuntimeDecompositionSplitsLengthyKernel(t *testing.T) {
	cfg := testCfg()
	cfg.ContentionFactor = 1.0
	cfg.DivisionFactor = 8
	s := &Scheduler{cfg: cfg}
	primary := syntheticBatch(0, 1, 2, 50*time.Microsecond, 30*time.Microsecond) // window 100µs
	// Donor head: one 400µs comm kernel — only a prefix fits.
	donor := NewBatch(1, model.Workload{Batch: 2, SeqLen: 16, Phase: model.Context},
		[]parallel.KernelDesc{
			parallel.SyntheticKernel("bigar", gpusim.Comm, 400*time.Microsecond, 0.08, 0.5, true).WithEqualSplit(),
		})
	s.processing = []*Batch{primary, donor}
	_, window, typ := s.collectPrimary(primary)
	sub1 := s.collectSecondary(typ, window)
	if len(sub1) != 2 { // two 50µs pieces fit in 100µs
		t.Fatalf("got %d pieces, want 2", len(sub1))
	}
	if s.stats.Decompositions != 1 {
		t.Fatalf("Decompositions = %d", s.stats.Decompositions)
	}
	// Remainder stays as the donor's head.
	if donor.Exhausted() {
		t.Fatal("donor exhausted; remainder lost")
	}
	rest := donor.head().Desc
	if rest.Duration != 300*time.Microsecond {
		t.Fatalf("remainder duration %v, want 300µs", rest.Duration)
	}
}

func TestDecompositionDisabledByFactorOne(t *testing.T) {
	cfg := testCfg()
	cfg.DivisionFactor = 1
	s := &Scheduler{cfg: cfg}
	primary := syntheticBatch(0, 1, 2, 50*time.Microsecond, 30*time.Microsecond)
	donor := NewBatch(1, model.Workload{Batch: 2, SeqLen: 16, Phase: model.Context},
		[]parallel.KernelDesc{
			parallel.SyntheticKernel("bigar", gpusim.Comm, 400*time.Microsecond, 0.08, 0.5, true).WithEqualSplit(),
		})
	s.processing = []*Batch{primary, donor}
	_, window, typ := s.collectPrimary(primary)
	if sub1 := s.collectSecondary(typ, window); len(sub1) != 0 {
		t.Fatalf("decomposition happened with factor 1: %d kernels", len(sub1))
	}
}

// A primary window of two 4 µs compute kernels is below
// minOverlapWindow: the donor's all-reduce, which one eighth of would
// fit, is left alone.
func TestMinOverlapWindowSkipsTinyWindows(t *testing.T) {
	s := &Scheduler{cfg: testCfg()}
	primary := syntheticBatch(0, 1, 2, 4*time.Microsecond, 30*time.Microsecond)
	donor := syntheticBatch(1, 1, 1, 10*time.Microsecond, 40*time.Microsecond)
	donor.pop()
	s.processing = []*Batch{primary, donor}
	_, window, typ := s.collectPrimary(primary)
	if sub1 := s.collectSecondary(typ, window); sub1 != nil {
		t.Fatalf("collected %d kernels below minOverlapWindow", len(sub1))
	}
}

func TestHybridFasterThanCPUGPU(t *testing.T) {
	// Fig. 13's shape: hybrid synchronization hides the multi-GPU launch
	// overhead that CPU-GPU synchronization exposes at every switch
	// point.
	run := func(mode SyncMode) simclock.Time {
		cfg := testCfg()
		cfg.Sync = mode
		eng, _, s := testRig(t, cfg)
		var last simclock.Time
		s.SetOnBatchDone(func(b *Batch, now simclock.Time) { last = now })
		eng.After(0, func(simclock.Time) {
			for i := 0; i < 4; i++ {
				s.Submit(syntheticBatch(i, 12, 3, 40*time.Microsecond, 30*time.Microsecond))
			}
		})
		eng.Run()
		return last
	}
	hybrid := run(Hybrid)
	cpugpu := run(CPUGPU)
	if cpugpu <= hybrid {
		t.Fatalf("CPU-GPU sync (%v) not slower than hybrid (%v)", cpugpu, hybrid)
	}
	// Per round the CPU-GPU path pays notify + per-device jitter
	// (>20µs); with 12 layers x 2 rounds x 4 batches the gap must be
	// substantial.
	if float64(cpugpu) < 1.05*float64(hybrid) {
		t.Fatalf("CPU-GPU overhead implausibly small: %v vs %v", cpugpu, hybrid)
	}
}

func TestBatchesArrivingOverTime(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	var done []int
	s.SetOnBatchDone(func(b *Batch, now simclock.Time) { done = append(done, b.ID) })
	for i := 0; i < 5; i++ {
		i := i
		eng.At(simclock.Time(i)*simclock.Time(300*time.Microsecond), func(simclock.Time) {
			s.Submit(syntheticBatch(i, 4, 2, 50*time.Microsecond, 30*time.Microsecond))
		})
	}
	eng.Run()
	if len(done) != 5 {
		t.Fatalf("%d of 5 batches completed", len(done))
	}
	// Arrival order is completion order for identical batches
	// (Principle 1).
	for i, id := range done {
		if id != i {
			t.Fatalf("completion order %v", done)
		}
	}
	if w, p := s.QueueLengths(); w != 0 || p != 0 {
		t.Fatalf("queues not drained: waiting %d processing %d", w, p)
	}
}

func TestIdleThenResume(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	count := 0
	s.SetOnBatchDone(func(*Batch, simclock.Time) { count++ })
	eng.After(0, func(simclock.Time) {
		s.Submit(syntheticBatch(0, 2, 2, 40*time.Microsecond, 30*time.Microsecond))
	})
	// Long gap — the scheduler goes idle — then a second batch.
	eng.At(simclock.Time(50*time.Millisecond), func(simclock.Time) {
		s.Submit(syntheticBatch(1, 2, 2, 40*time.Microsecond, 30*time.Microsecond))
	})
	eng.Run()
	if count != 2 {
		t.Fatalf("completed %d batches, want 2", count)
	}
}

func TestProcessingListBounded(t *testing.T) {
	cfg := testCfg()
	cfg.MaxInflight = 2
	eng, _, s := testRig(t, cfg)
	eng.After(0, func(simclock.Time) {
		for i := 0; i < 10; i++ {
			s.Submit(syntheticBatch(i, 2, 2, 40*time.Microsecond, 30*time.Microsecond))
		}
		if _, p := s.QueueLengths(); p > 2 {
			t.Fatalf("processing list %d exceeds MaxInflight 2", p)
		}
	})
	eng.Run()
	if s.Stats().BatchesDone != 10 {
		t.Fatalf("BatchesDone = %d", s.Stats().BatchesDone)
	}
}

// Batches that arrive together are interleaved, yet complete in arrival
// order (Principle 1).
func TestSimultaneousArrivalsKeepFIFO(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	var order []int
	s.SetOnBatchDone(func(b *Batch, now simclock.Time) { order = append(order, b.ID) })
	eng.After(0, func(simclock.Time) {
		for i := 0; i < 4; i++ {
			s.Submit(syntheticBatch(i, 4, 2, 50*time.Microsecond, 30*time.Microsecond))
		}
	})
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("%d of 4 batches completed", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("order %v", order)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Sync: Hybrid, ContentionFactor: 0.9, DivisionFactor: 8, MaxInflight: 4},
		{Sync: Hybrid, ContentionFactor: 1.1, DivisionFactor: 0, MaxInflight: 4},
		{Sync: Hybrid, ContentionFactor: 1.1, DivisionFactor: 8, MaxInflight: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig("v100").Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultConfig("v100").ContentionFactor != 1.1 {
		t.Fatal("V100 default contention factor should be 1.1 (§4.2)")
	}
	if DefaultConfig("a100").ContentionFactor != 1.15 {
		t.Fatal("A100 default contention factor should be 1.15 (§4.2)")
	}
}

// TestDefaultConfigKeepsV100AcrossGPUCounts pins that a V100 node
// renamed by hw.Node.WithGPUs keeps the V100 contention factor.
func TestDefaultConfigKeepsV100AcrossGPUCounts(t *testing.T) {
	v100, a100 := hw.V100Node(), hw.A100Node()
	for _, tc := range []struct {
		name string
		want float64
	}{
		{v100.Name, 1.1},
		{v100.WithGPUs(4).Name, 1.1},
		{v100.WithGPUs(2).Name, 1.1},
		{v100.WithGPUs(2).WithGPUs(1).Name, 1.1},
		{a100.Name, 1.15},
		{a100.WithGPUs(4).Name, 1.15},
		{"a100", 1.15},
	} {
		if got := DefaultConfig(tc.name).ContentionFactor; got != tc.want {
			t.Errorf("DefaultConfig(%q).ContentionFactor = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAssembler(t *testing.T) {
	comp := parallel.NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	asm, err := NewAssembler(comp, model.Tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b0, err := asm.Assemble(model.Workload{Batch: 2, SeqLen: 16, Phase: model.Context})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := asm.Assemble(model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context})
	if err != nil {
		t.Fatal(err)
	}
	if b0.ID == b1.ID {
		t.Fatal("batch IDs not unique")
	}
	if b0.Remaining() == 0 {
		t.Fatal("assembled batch has no funcs")
	}
	if _, err := NewAssembler(comp, model.Tiny(), 0); err == nil {
		t.Fatal("tp=0 accepted")
	}
	bad := model.Spec{Name: "bad", Layers: 0}
	if _, err := NewAssembler(comp, bad, 4); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestBatchAccounting(t *testing.T) {
	b := NewBatch(7, model.Workload{Batch: 2, SeqLen: 16, Phase: model.Context},
		[]parallel.KernelDesc{
			parallel.SyntheticKernel("a", gpusim.Compute, time.Microsecond, 0.5, 0.5, false),
		})
	if b.Exhausted() || b.Completed() {
		t.Fatal("fresh batch reports exhausted/completed")
	}
	if b.Latency() != 0 {
		t.Fatal("incomplete batch reports latency")
	}
	b.pop()
	if !b.Exhausted() {
		t.Fatal("batch not exhausted after popping all funcs")
	}
	b.kernelLaunched(1)
	b.kernelLaunched(1)
	b.kernelDone(10, 1)
	if b.Completed() {
		t.Fatal("completed with a kernel in flight")
	}
	b.kernelDone(20, 1)
	if !b.Completed() || b.DoneAt != 20 {
		t.Fatalf("completion at %v", b.DoneAt)
	}
}

func TestKernelDoneUnderflowPanics(t *testing.T) {
	b := NewBatch(0, model.Workload{Batch: 1, SeqLen: 1, Phase: model.Context}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	b.kernelDone(0, 1)
}

// A warmed-up scheduling round allocates nothing, without runtime
// decomposition (D = 1) and with it (D = 8): its subsets, collectives,
// end events, overrun observer and round trigger come from buffers and
// pools that earlier rounds filled. A split writes its head pieces into
// the splitter's buffer under interned names, and its remainder is a
// value whose scales the batch keeps. The warm-up is long enough for
// the event queue's buckets to reach their working capacity. Each case
// fails unless the measured rounds interleave kernels of two live
// batches; at D = 8 the all-reduces outlast the compute windows, and
// the rounds must split them and split their remainders again.
func TestSteadyStateRoundAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		division int
		commDur  time.Duration
	}{
		{1, 100 * time.Microsecond},
		{8, 400 * time.Microsecond},
	} {
		t.Run(fmt.Sprintf("D=%d", tc.division), func(t *testing.T) {
			cfg := testCfg()
			cfg.DivisionFactor = tc.division
			eng, _, s := testRig(t, cfg)
			b0 := syntheticBatch(0, 2000, 3, 40*time.Microsecond, tc.commDur)
			b1 := syntheticBatch(1, 2000, 3, 40*time.Microsecond, tc.commDur)
			eng.After(0, func(simclock.Time) { s.Submit(b0); s.Submit(b1) })
			// deepest is the most splits one remainder of b1 took.
			deepest := 0
			round := func() {
				for r := s.stats.Rounds; s.stats.Rounds == r; {
					if !eng.Step() {
						t.Fatal("the engine drained before the next round")
					}
				}
				deepest = max(deepest, len(b1.scales))
			}
			for i := 0; i < 2000; i++ {
				round()
			}
			secondary, splits := s.stats.SecondaryKernels, s.stats.Decompositions
			deepest = 0
			rounds := func() {
				for i := 0; i < 100; i++ {
					round()
				}
			}
			// AllocsPerRun divides by its runs, so one run of 100 rounds
			// counts every allocation. The runtime may allocate in the
			// background during any one window: keep the fewest of three.
			allocs := testing.AllocsPerRun(1, rounds)
			for try := 1; try < 3 && allocs > 0; try++ {
				allocs = min(allocs, testing.AllocsPerRun(1, rounds))
			}
			if allocs != 0 {
				t.Fatalf("%v allocations over 100 rounds, want 0", allocs)
			}
			if s.stats.SecondaryKernels == secondary || b0.Completed() || b1.Completed() {
				t.Fatal("the measured rounds did not interleave two live batches")
			}
			if tc.division > 1 && (s.stats.Decompositions == splits || deepest < 2) {
				t.Fatalf("the measured rounds made %d splits, at most %d of one kernel; want remainders split again",
					s.stats.Decompositions-splits, deepest)
			}
			t.Logf("%d splits in the measured rounds, at most %d of one kernel", s.stats.Decompositions-splits, deepest)
		})
	}
}

func TestRealModelEndToEnd(t *testing.T) {
	// Serve the tiny model through the full stack: assembler + scheduler
	// + simulated node, several batches.
	eng := simclock.New()
	node, err := gpusim.New(eng, hw.V100Node())
	if err != nil {
		t.Fatal(err)
	}
	comp := parallel.NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	asm, err := NewAssembler(comp, model.Tiny(), node.NumDevices())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(node, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	s.SetOnBatchDone(func(*Batch, simclock.Time) { completed++ })
	for i := 0; i < 6; i++ {
		at := simclock.Time(i) * simclock.Time(50*time.Microsecond)
		eng.At(at, func(simclock.Time) {
			b, err := asm.Assemble(model.Workload{Batch: 2, SeqLen: 16, Phase: model.Context})
			if err != nil {
				t.Error(err)
				return
			}
			s.Submit(b)
		})
	}
	eng.Run()
	if completed != 6 {
		t.Fatalf("completed %d of 6", completed)
	}
	st := s.Stats()
	if st.Rounds == 0 || st.PrimaryKernels == 0 {
		t.Fatalf("implausible stats %+v", st)
	}
}
