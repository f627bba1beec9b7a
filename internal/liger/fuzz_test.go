package liger

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"liger/internal/gpusim"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// randomBatch builds a batch with a random but well-formed kernel
// sequence: alternating compute runs and single comm kernels, with
// random durations and demands.
func randomBatch(rng *rand.Rand, id int) *Batch {
	layers := 1 + rng.Intn(6)
	var ks []parallel.KernelDesc
	for l := 0; l < layers; l++ {
		ncomp := 1 + rng.Intn(4)
		for c := 0; c < ncomp; c++ {
			dur := time.Duration(1+rng.Intn(200)) * time.Microsecond
			ks = append(ks, parallel.SyntheticKernel("c", gpusim.Compute, dur,
				0.1+0.8*rng.Float64(), rng.Float64(), false).WithEqualSplit())
		}
		dur := time.Duration(1+rng.Intn(200)) * time.Microsecond
		ks = append(ks, parallel.SyntheticKernel("m", gpusim.Comm, dur,
			0.05, rng.Float64(), true).WithEqualSplit())
	}
	return NewBatch(id, model.Workload{Batch: 1 + rng.Intn(8), SeqLen: 16, Phase: model.Context}, ks)
}

// TestFuzzSchedulerCompletesArbitraryWorkloads drives the scheduler
// with randomized batches, arrival patterns and configurations. Every
// batch must complete, with a sane latency, regardless.
func TestFuzzSchedulerCompletesArbitraryWorkloads(t *testing.T) {
	f := func(seed int64, syncSel, division, inflight uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testCfg()
		cfg.Sync = SyncMode(int(syncSel) % 3)
		cfg.DivisionFactor = 1 + int(division)%16
		cfg.MaxInflight = 1 + int(inflight)%8
		eng, _, s := testRig(t, cfg)
		n := 3 + rng.Intn(10)
		completed := 0
		s.SetOnBatchDone(func(*Batch, simclock.Time) { completed++ })
		for i := 0; i < n; i++ {
			b := randomBatch(rng, i)
			at := simclock.Time(rng.Intn(3000)) * simclock.Time(time.Microsecond)
			eng.At(at, func(simclock.Time) { s.Submit(b) })
		}
		eng.Run()
		return completed == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzDeterminism: the same seed must give byte-identical
// completion sequences.
func TestFuzzDeterminism(t *testing.T) {
	run := func(seed int64) []simclock.Time {
		rng := rand.New(rand.NewSource(seed))
		eng, _, s := testRig(t, testCfg())
		var times []simclock.Time
		s.SetOnBatchDone(func(b *Batch, now simclock.Time) { times = append(times, now) })
		for i := 0; i < 8; i++ {
			b := randomBatch(rng, i)
			at := simclock.Time(rng.Intn(2000)) * simclock.Time(time.Microsecond)
			eng.At(at, func(simclock.Time) { s.Submit(b) })
		}
		eng.Run()
		return times
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d vs %d completions", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d diverged at completion %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

// TestFuzzNoSameClassConcurrency: by construction, two kernels of the
// same class never run concurrently on one device (compute and comm
// each own one in-order stream). Verify on the recorded spans.
func TestFuzzNoSameClassConcurrency(t *testing.T) {
	rec := trace.NewRecorder()
	rng := rand.New(rand.NewSource(99))
	eng, node, s := testRig(t, testCfg())
	node.SetTracer(rec)
	for i := 0; i < 10; i++ {
		b := randomBatch(rng, i)
		at := simclock.Time(rng.Intn(2000)) * simclock.Time(time.Microsecond)
		eng.At(at, func(simclock.Time) { s.Submit(b) })
	}
	eng.Run()
	spans := slices.Clone(rec.Spans())
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	slices.SortStableFunc(spans, func(a, b trace.Span) int { return cmp.Compare(a.Start, b.Start) })
	type lane struct {
		dev   int
		class gpusim.KernelClass
	}
	busyUntil := map[lane]simclock.Time{}
	for _, sp := range spans {
		l := lane{sp.Device, sp.Class}
		if sp.Start < busyUntil[l] {
			t.Fatalf("two kernels of the same class ran concurrently on device %d: %s starts at %v, before %v", sp.Device, sp.Name, sp.Start, busyUntil[l])
		}
		busyUntil[l] = max(busyUntil[l], sp.End)
	}
}
