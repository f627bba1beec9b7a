package liger

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
)

// describe renders every scheduling-relevant field of a kernel
// sequence, so sequences can be compared without their split closures.
func describe(ks []parallel.KernelDesc) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("%s %v %v %g %g %v %d %v", k.Name, k.Class, k.Duration,
			k.ComputeDemand, k.MemBWDemand, k.Collective, k.Bytes, k.CanSplit())
	}
	return out
}

// batchDescs drains a fresh batch into the kernel sequence the
// scheduler would see.
func batchDescs(b *Batch) []parallel.KernelDesc {
	var out []parallel.KernelDesc
	for !b.Exhausted() {
		f := b.pop()
		k := *f.Desc
		k.Name = f.Name
		out = append(out, k)
	}
	return out
}

// cacheOf returns the cache of a's plan cache that a reads: that of its
// degree.
func cacheOf(a *Assembler) *planCache { return a.plans.cacheFor(a.tp) }

func compiled(t *testing.T, c *parallel.Compiler, tp int, w model.Workload) []string {
	t.Helper()
	ks, err := c.IntraOp(model.Tiny(), tp, w)
	if err != nil {
		t.Fatal(err)
	}
	return describe(ks)
}

// A runtime decomposition rewrites only the decomposed batch: the cached
// plan and the next batch of the same shape keep the compiled kernels.
// Retarget drops the old plans from the assembler's view, so its next
// batch compiles for the new world, while an assembler sharing the cache
// at the old degree keeps them.
func TestPlanCacheIsolatedFromDecomposition(t *testing.T) {
	comp := parallel.NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	asm, err := NewAssembler(comp, model.Tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewAssembler(comp, model.Tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	shared := new(Plans)
	asm.Share(shared)
	peer.Share(shared)
	w := model.Workload{Batch: 2, SeqLen: 32, Phase: model.Context}
	want := compiled(t, comp, 4, w)
	b1, err := asm.Assemble(w)
	if err != nil {
		t.Fatal(err)
	}
	// Advance to the first decomposable all-reduce past layer 0, read out
	// of the shared layer block under its own layer's name, and let a
	// round whose compute window is half its length peel a prefix off it.
	for !b1.head().Desc.Collective || !b1.head().Desc.CanSplit() || !strings.HasPrefix(b1.head().Name, "l1.") {
		b1.pop()
	}
	head := b1.head()
	cfg := testCfg()
	cfg.ContentionFactor, cfg.DivisionFactor = 1, 8
	s := &Scheduler{cfg: cfg}
	primary := syntheticBatch(99, 1, 1, head.Desc.Duration/2, head.Desc.Duration)
	s.processing = []*Batch{primary, b1}
	_, window, typ := s.collectPrimary(primary)
	sub := s.collectSecondary(typ, window)
	if len(sub) == 0 || s.stats.Decompositions != 1 {
		t.Fatalf("no decomposition: %d pieces, %d decompositions", len(sub), s.stats.Decompositions)
	}
	if got := sub[0].Desc.Name; got != head.Name+"[1/8]" {
		t.Fatalf("first piece of %s is named %s", head.Name, got)
	}
	if got := b1.head().Desc.Name; !strings.HasPrefix(got, head.Name+"[rest") {
		t.Fatalf("decomposed batch holds %s, want the remainder of %s", got, head.Name)
	}

	if got := describe(cacheOf(asm).plans[w].Value.(*cachedPlan).plan.Kernels()); !reflect.DeepEqual(got, want) {
		t.Fatal("decomposition changed the cached plan")
	}
	b2, err := peer.Assemble(w)
	if err != nil {
		t.Fatal(err)
	}
	if b2.plan != b1.plan {
		t.Fatal("same-shape batches do not share the cached plan")
	}
	if got := describe(batchDescs(b2)); !reflect.DeepEqual(got, want) {
		t.Fatal("the next same-shape batch does not carry the compiled plan")
	}

	comp2 := comp.ForWorldSize(2)
	if err := asm.Retarget(comp2, 2); err != nil {
		t.Fatal(err)
	}
	if len(shared.caches) != 1 {
		t.Fatalf("Retarget made %d caches before a two-way plan was asked for", len(shared.caches)-1)
	}
	if c := shared.caches[0]; c.tp != 4 || len(c.plans) != 1 || c.lru.Len() != 1 || c.descs != b1.plan.Stored() {
		t.Fatalf("after Retarget the four-way cache holds %d plans (%d listed, %d descriptors), want one", len(c.plans), c.lru.Len(), c.descs)
	}
	if b4, err := peer.Assemble(w); err != nil || b4.plan != b1.plan {
		t.Fatalf("a peer's Retarget dropped the four-way plan (%v)", err)
	}
	b3, err := asm.Assemble(w)
	if err != nil {
		t.Fatal(err)
	}
	want2 := compiled(t, comp2, 2, w)
	if reflect.DeepEqual(want2, want) {
		t.Fatal("the two-way plan equals the four-way plan; the check below proves nothing")
	}
	if got := describe(batchDescs(b3)); !reflect.DeepEqual(got, want2) {
		t.Fatal("after Retarget the batch was not compiled for the new world")
	}
	if len(shared.caches) != 2 || cacheOf(asm) != shared.caches[1] || cacheOf(peer) != shared.caches[0] ||
		shared.caches[1].plans[w].Value != b3.entry {
		t.Fatal("the two degrees do not have a cache each")
	}
}

// The decode plans of one batch size share their batch's blocks but
// each holds its own attention, and a detached batch of a sharing plan
// (Batch.Detached, what a replay probe runs) keeps it: it runs the
// compile of the model at its own context length, not at the one its
// batch's blocks were compiled for.
func TestDetachedRunsItsOwnAttention(t *testing.T) {
	spec := model.OPT30B()
	comp := parallel.NewCompiler(hw.A100Node(), nccl.Config{ReducedChannels: true})
	asm, err := NewAssembler(comp, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	short := model.Workload{Batch: 4, CtxLen: 128, Phase: model.Decode}
	long := model.Workload{Batch: 4, CtxLen: 4096, Phase: model.Decode}
	var runs [2][]string
	for i, w := range []model.Workload{short, long} {
		b, err := asm.Assemble(w)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = describe(batchDescs(b.Detached(nil)))
		ks, err := parallel.NewCompiler(hw.A100Node(), nccl.Config{ReducedChannels: true}).IntraOp(spec, 4, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := describe(ks); !reflect.DeepEqual(runs[i], want) {
			t.Fatalf("ctx %d: the detached batch runs\n%s\nwant\n%s", w.CtxLen, strings.Join(runs[i], "\n"), strings.Join(want, "\n"))
		}
		if b.Remaining() != len(ks) {
			t.Fatalf("ctx %d: draining the detached batch moved the assembled one", w.CtxLen)
		}
	}
	if reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("the two context lengths cost alike: the test compares nothing")
	}
}

// The cache holds at most planBudget descriptors, dropping the least
// recently used plans first; an evicted shape compiles again on demand.
// A plan counts the descriptors it stores, one layer's worth, not the
// kernels it expands to. Two assemblers fill the cache they share, so a
// use by either counts.
func TestPlanCacheEvictsLeastRecentlyUsed(t *testing.T) {
	spec := model.OPT30B()
	comp := parallel.NewCompiler(hw.A100Node(), nccl.Config{ReducedChannels: true})
	asm, err := NewAssembler(comp, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewAssembler(comp, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	shared := new(Plans)
	asm.Share(shared)
	peer.Share(shared)
	shape := func(i int) model.Workload { return model.Workload{Batch: 1, SeqLen: 16 + i, Phase: model.Context} }
	first, err := asm.Assemble(shape(0))
	if err != nil {
		t.Fatal(err)
	}
	plan := cacheOf(asm).plans[shape(0)].Value.(*cachedPlan).plan
	// Shape 0's records, one per world, go with its plan.
	rec := NewReplay(time.Millisecond, 3, gpusim.Work{}, Stats{})
	asm.SetReplay(first, World{Folded: true}, rec)
	asm.SetReplay(first, World{}, rec)
	perPlan := plan.Stored()
	perLayer := plan.LayerLen()
	if want := first.Remaining() - (spec.Layers-1)*perLayer; perPlan != want {
		t.Fatalf("a %d-kernel plan stores %d descriptors, want %d: one layer's", first.Remaining(), perPlan, want)
	}
	n := planBudget/perPlan + 2
	for i := 1; i < n; i++ {
		if i == n/2 {
			// The peer touches shape 1 so it becomes recently used and
			// survives.
			if _, err := peer.Assemble(shape(1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := [2]*Assembler{asm, peer}[i%2].Assemble(shape(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c := cacheOf(asm); len(shared.caches) != 1 || c.descs > planBudget || c.descs != perPlan*len(c.plans) || c.lru.Len() != len(c.plans) {
		t.Fatalf("cache holds %d descriptors in %d plans (%d listed), budget %d", c.descs, len(c.plans), c.lru.Len(), planBudget)
	}
	if _, ok := cacheOf(asm).plans[shape(0)]; ok {
		t.Fatal("the least recently used plan was kept")
	}
	if held, marked := shared.Records(); held != 0 || marked != 0 {
		t.Fatalf("the evicted plan's records stayed: %d held, %d marked", held, marked)
	}
	if _, ok := cacheOf(asm).plans[shape(1)]; !ok {
		t.Fatal("a recently used plan was evicted")
	}
	again, err := asm.Assemble(shape(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(describe(batchDescs(again)), describe(batchDescs(first))) {
		t.Fatal("an evicted shape recompiled differently")
	}
}

// A cache miss costs one layer's compile, so its allocations do not grow
// with depth: GPT-175B's 96 layers allocate exactly what OPT-30B's 48
// do, in count and in bytes.
func TestPlanMissCostIndependentOfDepth(t *testing.T) {
	const runs = 20
	comp := parallel.NewCompiler(hw.A100Node(), nccl.Config{ReducedChannels: true})
	w := model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context}
	var allocs [2]float64
	var bytes [2]uint64
	for i, spec := range []model.Spec{model.OPT30B(), model.GPT175B()} {
		asm, err := NewAssembler(comp, spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		miss := func() {
			asm.Share(new(Plans))
			if _, err := asm.Assemble(w); err != nil {
				t.Fatal(err)
			}
		}
		allocs[i] = testing.AllocsPerRun(runs, miss)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			miss()
		}
		runtime.ReadMemStats(&m1)
		bytes[i] = (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	if allocs[0] != allocs[1] || bytes[0] != bytes[1] {
		t.Fatalf("a cache miss allocates %v times (%d B) at 48 layers and %v times (%d B) at 96",
			allocs[0], bytes[0], allocs[1], bytes[1])
	}
}

// Walking an assembled batch reads the shared plan in place: draining
// it through pop allocates nothing.
func TestDrainAssembledBatchAllocatesNothing(t *testing.T) {
	comp := parallel.NewCompiler(hw.A100Node(), nccl.Config{ReducedChannels: true})
	asm, err := NewAssembler(comp, model.OPT30B(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := asm.Assemble(model.Workload{Batch: 2, SeqLen: 64, Phase: model.Context})
	if err != nil {
		t.Fatal(err)
	}
	drain := func() {
		b.pos = 0
		for !b.Exhausted() {
			b.pop()
		}
	}
	if a := testing.AllocsPerRun(20, drain); a != 0 {
		t.Fatalf("draining a %d-kernel batch allocates %v times", b.plan.Len(), a)
	}
}
